package core

import (
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// TestOpportunisticBeatsGuarantee: with faults split across the
// bipartition, the opportunistic router recovers vertices beyond
// n!-2|Fv| — one per upgraded block — while staying within the ceiling.
func TestOpportunisticBeatsGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 6; n <= 8; n++ {
		k := faults.MaxTolerated(n)
		for seed := 0; seed < 10; seed++ {
			// Force a balanced parity mix so upgrades are available.
			fs := faults.NewSet(n)
			for fs.NumVertices() < k/2 {
				v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
				if v.Parity(n) == 0 {
					fs.AddVertex(v)
				}
			}
			for fs.NumVertices() < k {
				v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
				if v.Parity(n) == 1 {
					fs.AddVertex(v)
				}
			}
			plan, err := Embed(n, fs, Config{Opportunistic: true})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			res := plan.Result()
			if res.Len() != res.Guarantee+res.Upgrades {
				t.Fatalf("n=%d: len %d != guarantee %d + upgrades %d",
					n, res.Len(), res.Guarantee, res.Upgrades)
			}
			if res.Upgrades == 0 {
				t.Fatalf("n=%d seed=%d: balanced faults yielded no upgrades", n, seed)
			}
			if res.Len() > res.UpperBound {
				t.Fatalf("n=%d: len %d exceeds ceiling %d", n, res.Len(), res.UpperBound)
			}
			if err := check.Ring(star.New(n), plan.Ring(), fs, res.Guarantee+res.Upgrades); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOpportunisticSamePartiteNoop: with all faults on one side there is
// nothing to upgrade and the result matches the plain algorithm (which
// is already optimal there).
func TestOpportunisticSamePartiteNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 7
	fs := faults.SamePartiteVertices(n, faults.MaxTolerated(n), 0, rng)
	plan, err := Embed(n, fs, Config{Opportunistic: true})
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Result()
	if res.Upgrades != 0 {
		t.Fatalf("same-partite upgrades = %d", res.Upgrades)
	}
	if res.Len() != res.Guarantee || res.Len() != res.UpperBound {
		t.Fatalf("len %d, guarantee %d, ceiling %d", res.Len(), res.Guarantee, res.UpperBound)
	}
}

// TestOpportunisticCeilingOftenReached: the upgrade count is bounded by
// the number of parity runs; across random balanced instances the
// ceiling itself is reached whenever fault parities alternate in block
// order. Assert the accounting (upgrades = cyclic parity runs) rather
// than luck.
func TestOpportunisticUpgradeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 7
	for seed := 0; seed < 20; seed++ {
		fs := faults.RandomVertices(n, 4, rng)
		f0 := 0
		for _, v := range fs.Vertices() {
			if v.Parity(n) == 0 {
				f0++
			}
		}
		plan, err := Embed(n, fs, Config{Opportunistic: true})
		if err != nil {
			t.Fatal(err)
		}
		res := plan.Result()
		maxUp := 2 * min(f0, 4-f0)
		if res.Upgrades > maxUp {
			t.Fatalf("upgrades %d exceed 2*min(f0,f1) = %d", res.Upgrades, maxUp)
		}
		if res.Upgrades%2 != 0 {
			t.Fatalf("odd upgrade count %d", res.Upgrades)
		}
		if res.Len() != res.Guarantee+res.Upgrades {
			t.Fatalf("length accounting broken")
		}
	}
}

// TestOpportunisticDisabledByDefault: the plain configuration never
// upgrades, preserving the paper's exact behavior.
func TestOpportunisticDisabledByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	fs := faults.RandomVertices(7, 4, rng)
	plan, err := Embed(7, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Result()
	if res.Upgrades != 0 || res.Len() != res.Guarantee {
		t.Fatalf("plain mode deviated: len %d, upgrades %d", res.Len(), res.Upgrades)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
