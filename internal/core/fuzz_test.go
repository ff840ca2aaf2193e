package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// FuzzEmbedRing drives the full paper pipeline on randomized fault
// sets: dimension n in [4,7], |Fv| <= n-3 distinct faulty vertices
// derived from the fuzzed seed. mode bit 0 asks for a longest path
// instead of a ring, between the healthy vertices at or after ranks
// sRank and tRank (mod n!), distinct; mode bit 1 turns on best effort.
// Every plan is independently re-verified by internal/check (simple,
// fault-free, adjacent along every hop, the right ends for a path). A
// ring must meet n! - 2|Fv| in either mode. A strict path must meet its
// guarantee, or refuse with the separation error: at S_5 some inputs
// inside the budget leave no s/t-splitting first position that
// separates the faults. Best effort must return a path anyway, verified
// against its guarantee only when it claims one. This is the target
// the scripts/ci.sh fuzz smoke leg exercises.
func FuzzEmbedRing(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint8(0), uint16(0), uint16(0))     // n=4, no faults
	f.Add(uint8(2), uint8(3), int64(7), uint8(0), uint16(0), uint16(0))     // n=6, 3 faults (paper budget)
	f.Add(uint8(3), uint8(9), int64(42), uint8(0), uint16(0), uint16(0))    // n=7, 4 faults
	f.Add(uint8(3), uint8(9), int64(42), uint8(2), uint16(0), uint16(0))    // the same, best effort
	f.Add(uint8(2), uint8(3), int64(7), uint8(1), uint16(100), uint16(500)) // n=6 path, 3 faults
	f.Add(uint8(1), uint8(2), int64(3460), uint8(3), uint16(1), uint16(80)) // S_5 path from 12354 to 42315 around 12345 and 31245, best effort
	f.Add(uint8(1), uint8(2), int64(3460), uint8(1), uint16(1), uint16(80)) // the same, strict
	f.Add(uint8(0), uint8(1), int64(5), uint8(3), uint16(17), uint16(17))   // n=4 path, equal ranks
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed int64, mode uint8, sRank, tRank uint16) {
		n := 4 + int(nRaw)%4     // S_4 .. S_7
		k := int(kRaw) % (n - 2) // 0 .. n-3 vertex faults
		rng := rand.New(rand.NewSource(seed))

		order := perm.Factorial(n)
		fs := faults.NewSet(n)
		for fs.NumVertices() < k {
			v := perm.UnrankCode(n, rng.Intn(order))
			if fs.HasVertex(v) {
				continue
			}
			if err := fs.AddVertex(v); err != nil {
				t.Fatalf("AddVertex(%s): %v", v.StringN(n), err)
			}
		}
		cfg := core.Config{BestEffort: mode&2 != 0}
		if mode&1 != 0 {
			fuzzPath(t, fs, int(sRank), int(tRank), cfg)
			return
		}

		plan, err := core.Embed(n, fs, cfg)
		if err != nil {
			t.Fatalf("Embed(n=%d, |Fv|=%d, seed=%d): %v", n, k, seed, err)
		}
		res := plan.Result()
		if !res.Guaranteed {
			t.Fatalf("n=%d |Fv|=%d is within budget but Guaranteed=false", n, k)
		}
		if want := order - 2*k; res.Guarantee != want {
			t.Fatalf("guarantee = %d, want n!-2|Fv| = %d", res.Guarantee, want)
		}
		if len(plan.Ring()) < res.Guarantee {
			t.Fatalf("ring length %d below guarantee %d", len(plan.Ring()), res.Guarantee)
		}
		if err := check.Ring(star.New(n), plan.Ring(), fs, res.Guarantee); err != nil {
			t.Fatalf("independent verification failed (n=%d |Fv|=%d seed=%d): %v", n, k, seed, err)
		}
	})
}

// fuzzPath embeds a longest path of FuzzEmbedRing's fault set between
// the first healthy vertices at or after ranks sRank and tRank, the
// second distinct from the first, and checks it.
func fuzzPath(t *testing.T, fs *faults.Set, sRank, tRank int, cfg core.Config) {
	t.Helper()
	n, k := fs.N(), fs.NumVertices()
	order := perm.Factorial(n)
	s := perm.UnrankCode(n, sRank%order)
	for fs.HasVertex(s) {
		s = perm.UnrankCode(n, (s.Rank(n)+1)%order)
	}
	tt := perm.UnrankCode(n, tRank%order)
	for tt == s || fs.HasVertex(tt) {
		tt = perm.UnrankCode(n, (tt.Rank(n)+1)%order)
	}
	var fv []string
	for _, v := range fs.Vertices() {
		fv = append(fv, v.StringN(n))
	}
	what := fmt.Sprintf("EmbedPath(n=%d, Fv=%v, %s -> %s, best effort %v)", n, fv, s.StringN(n), tt.StringN(n), cfg.BestEffort)
	plan, err := core.EmbedPath(n, fs, s, tt, cfg)
	if err != nil {
		if !cfg.BestEffort && strings.Contains(err.Error(), "prevents Lemma 2 separation") {
			return
		}
		t.Fatalf("%s: %v", what, err)
	}
	res := plan.Result()
	minLen := 0
	switch {
	case res.Guaranteed:
		minLen = res.Guarantee
	case !cfg.BestEffort:
		t.Fatalf("%s: within budget but Guaranteed=false", what)
	}
	want := order - 2*k
	if s.Parity(n) == tt.Parity(n) {
		want--
	}
	if n >= 5 && res.Guarantee != want {
		t.Fatalf("%s: guarantee %d, want %d", what, res.Guarantee, want)
	}
	path := plan.Ring()
	if len(path) != res.Length {
		t.Fatalf("%s: %d vertices emitted, result says %d", what, len(path), res.Length)
	}
	if err := check.Path(star.New(n), path, fs, s, tt, minLen); err != nil {
		t.Fatalf("%s: independent verification failed: %v", what, err)
	}
}

// FuzzRepairSequence drives a plan through an arbitrary fault-arrival
// order: dimension n in [5,8], a seed that picks the cold embedding's
// fault set (0..n-4 random vertices) and the mode (strict or best
// effort), and arrivals, two bytes per vertex (its rank mod n!), at
// most 2n of them. Every arrival goes to Plan.Repair. After the cold
// embed and after every call the ring must pass check.RingStream
// against the plan's faults, emit exactly the plan's length, and meet
// n!-2|Fv| while the set is within budget; and at 64 sampled positions
// and the 64 after them RingAt must return the cursor's vertex, which
// OnRing must report on the ring. Within budget no call may
// fail; past it, strict mode must refuse with ErrBudget and leave the
// plan as it was, and a best-effort rebuild may fail, which ends the
// sequence. Rebuilds route their blocks through the two step-word
// tables and splices read the detour table, so both are exercised.
func FuzzRepairSequence(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 7, 0, 9, 0, 7, 1, 2})
	f.Add(uint8(1), int64(2), []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0})
	f.Add(uint8(3), int64(5), []byte{0x9c, 0x40, 0x12, 0x34, 0x00, 0x01, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, nSel uint8, seed int64, arrivals []byte) {
		n := 5 + int(nSel)%4
		order := perm.Factorial(n)
		budget := faults.MaxTolerated(n)
		rng := rand.New(rand.NewSource(seed))
		cfg := core.Config{BestEffort: seed&1 == 1}
		e, err := core.NewEmbedder(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.Embed(faults.RandomVertices(n, rng.Intn(budget), rng))
		if err != nil {
			t.Fatalf("cold embed (n=%d, seed=%d): %v", n, seed, err)
		}
		g := star.New(n)
		verify := func(step int) {
			t.Helper()
			res := plan.Result()
			fs := plan.Faults()
			minLen := 0
			if within := fs.NumVertices()+fs.NumEdges() <= budget; within {
				if !res.Guaranteed || res.Guarantee != order-2*fs.NumVertices() {
					t.Fatalf("step %d: |Fv|=%d within budget, Guaranteed %v, Guarantee %d", step, fs.NumVertices(), res.Guaranteed, res.Guarantee)
				}
				minLen = res.Guarantee
			}
			count, err := check.RingStream(g, plan.Cursor().Next, fs, minLen)
			if err != nil {
				t.Fatalf("step %d (n=%d, seed=%d, |Fv|=%d): %v", step, n, seed, fs.NumVertices(), err)
			}
			if count != plan.RingLen() {
				t.Fatalf("step %d: cursor emitted %d vertices, plan reports %d", step, count, plan.RingLen())
			}
			ring := plan.Ring()
			for j := 0; j < 64; j++ {
				i := rng.Intn(len(ring))
				for _, i := range [2]int{i, (i + 1) % len(ring)} {
					if v := plan.RingAt(i); v != ring[i] {
						t.Fatalf("step %d: RingAt(%d) = %s, the cursor emits %s", step, i, v.StringN(n), ring[i].StringN(n))
					}
					if !plan.OnRing(ring[i]) {
						t.Fatalf("step %d: OnRing(%s) = false at ring position %d", step, ring[i].StringN(n), i)
					}
				}
			}
		}
		verify(0)
		for i := 0; i+1 < len(arrivals) && i < 4*n; i += 2 {
			v := perm.UnrankCode(n, (int(arrivals[i])<<8|int(arrivals[i+1]))%order)
			before := plan.RingLen()
			past := plan.Faults().NumVertices()+1 > budget && !plan.Faulty(v)
			_, err := plan.Repair(v)
			switch {
			case err == nil:
			case !past:
				t.Fatalf("repair %s within budget (n=%d, seed=%d): %v", v.StringN(n), n, seed, err)
			case !cfg.BestEffort:
				if !errors.Is(err, core.ErrBudget) || plan.Faulty(v) || plan.RingLen() != before {
					t.Fatalf("strict repair past budget: err %v, faulty %v, length %d -> %d", err, plan.Faulty(v), before, plan.RingLen())
				}
			default:
				return // a best-effort rebuild past the budget failed; the plan is broken
			}
			verify(i/2 + 1)
		}
	})
}
