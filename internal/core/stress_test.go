package core

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
)

// TestStressVertexFaults hammers the embedder with many seeded fault
// sets at the maximum budget, including the worst-case same-partite
// distribution where the guarantee is exactly the upper bound.
func TestStressVertexFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for n := 5; n <= 8; n++ {
		k := faults.MaxTolerated(n)
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for name, fs := range map[string]*faults.Set{
				"uniform":     faults.RandomVertices(n, k, rng),
				"samePartite": faults.SamePartiteVertices(n, k, int(seed)%2, rng),
			} {
				plan, err := Embed(n, fs, Config{})
				if err != nil {
					t.Fatalf("n=%d seed=%d %s: %v", n, seed, name, err)
				}
				res := plan.Result()
				if res.Len() < res.Guarantee {
					t.Fatalf("n=%d seed=%d %s: len %d < %d", n, seed, name, res.Len(), res.Guarantee)
				}
			}
		}
	}
}

// TestStressEdgeAndMixedFaults checks the concluding-remark variants:
// edge faults keep the ring Hamiltonian, mixed faults keep n! - 2|Fv|.
func TestStressEdgeAndMixedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for n := 5; n <= 8; n++ {
		budget := faults.MaxTolerated(n)
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			for kv := 0; kv <= budget; kv++ {
				ke := budget - kv
				fs := faults.Mixed(n, kv, ke, rng)
				plan, err := Embed(n, fs, Config{})
				if err != nil {
					t.Fatalf("n=%d seed=%d kv=%d ke=%d: %v", n, seed, kv, ke, err)
				}
				res := plan.Result()
				want := perm.Factorial(n) - 2*kv
				if res.Len() < want {
					t.Fatalf("n=%d seed=%d kv=%d ke=%d: len %d < %d", n, seed, kv, ke, res.Len(), want)
				}
			}
		}
	}
}

// TestEmbedLargeN exercises n=9 once to confirm the pipeline scales.
func TestEmbedLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large n")
	}
	n := 9
	rng := rand.New(rand.NewSource(7))
	fs := faults.RandomVertices(n, faults.MaxTolerated(n), rng)
	plan, err := Embed(n, fs, Config{})
	if err != nil {
		t.Fatalf("n=9: %v", err)
	}
	res := plan.Result()
	if res.Len() < res.Guarantee {
		t.Fatalf("n=9: len %d < %d", res.Len(), res.Guarantee)
	}
	t.Logf("n=9: ring %d over %d blocks", res.Len(), res.Blocks)
}

// TestEmbedScaleN10 exercises the largest practical dimension: 3.6M
// vertices, 7 faults. Run explicitly; skipped with -short and in the
// default suite it stays enabled because it finishes in ~1-2 s.
func TestEmbedScaleN10(t *testing.T) {
	if testing.Short() {
		t.Skip("large n")
	}
	n := 10
	rng := rand.New(rand.NewSource(10))
	fs := faults.RandomVertices(n, faults.MaxTolerated(n), rng)
	plan, err := Embed(n, fs, Config{})
	if err != nil {
		t.Fatalf("n=10: %v", err)
	}
	res := plan.Result()
	if res.Len() < res.Guarantee {
		t.Fatalf("n=10: len %d < %d", res.Len(), res.Guarantee)
	}
	t.Logf("n=10: ring %d over %d blocks", res.Len(), res.Blocks)
}
