package core_test

import (
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
