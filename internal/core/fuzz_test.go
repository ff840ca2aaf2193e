package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// FuzzEmbedRing drives the full paper pipeline on randomized fault
// sets: dimension n in [4,7], |Fv| <= n-3 distinct faulty vertices
// derived from the fuzzed seed, then the embedding is independently
// re-verified by internal/check (simple cycle, fault-free, adjacency
// along every hop, length >= n! - 2|Fv|). This is the target the
// scripts/ci.sh fuzz smoke leg exercises.
func FuzzEmbedRing(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))  // n=4, no faults
	f.Add(uint8(2), uint8(3), int64(7))  // n=6, 3 faults (paper budget)
	f.Add(uint8(3), uint8(9), int64(42)) // n=7, 4 faults
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed int64) {
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

		plan, err := core.Embed(n, fs, core.Config{})
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
