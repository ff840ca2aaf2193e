package core

import (
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// TestBestEffortRelaxedDiscipline drives the over-budget ring path that
// must drop the Lemma 3 discipline: S_5 with 4 faults can have three or
// more faulty blocks among five, which no cycle can keep non-adjacent.
func TestBestEffortRelaxedDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for seed := 0; seed < 10; seed++ {
		fs := faults.RandomVertices(5, 4, rng)
		plan, err := Embed(5, fs, Config{BestEffort: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := plan.Result()
		if res.Guaranteed {
			t.Fatal("over-budget result guaranteed")
		}
		if err := check.Ring(star.New(5), plan.Ring(), fs, 0); err != nil {
			t.Fatal(err)
		}
		// The bipartite ceiling still binds.
		if res.Len() > check.BipartiteUpperBound(5, fs) {
			t.Fatalf("seed %d: ring %d exceeds the ceiling", seed, res.Len())
		}
	}
}

// TestBestEffortPathBeyondBudget exercises the chain pipeline's
// degraded block targets.
func TestBestEffortPathBeyondBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	n := 6
	for seed := 0; seed < 5; seed++ {
		fs := faults.RandomVertices(n, 5, rng) // budget is 3
		var s, tt perm.Code
		for {
			s = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			tt = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if s != tt && !fs.HasVertex(s) && !fs.HasVertex(tt) {
				break
			}
		}
		res, err := EmbedPath(n, fs, s, tt, Config{BestEffort: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Guaranteed {
			t.Fatal("over-budget path guaranteed")
		}
		if err := check.Path(star.New(n), res.Path, fs); err != nil {
			t.Fatal(err)
		}
		// Losing more than 4 vertices per fault would indicate the
		// degraded targets are too loose.
		if res.Len() < perm.Factorial(n)-4*5-2 {
			t.Fatalf("seed %d: best-effort path only %d vertices", seed, res.Len())
		}
	}
}

// TestBestEffortPathStrictRejects mirrors the ring budget check.
func TestBestEffortPathStrictRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	fs := faults.RandomVertices(6, 5, rng)
	var s, tt perm.Code
	for {
		s = perm.UnrankCode(6, rng.Intn(720))
		tt = perm.UnrankCode(6, rng.Intn(720))
		if s != tt && !fs.HasVertex(s) && !fs.HasVertex(tt) {
			break
		}
	}
	if _, err := EmbedPath(6, fs, s, tt, Config{}); err == nil {
		t.Fatal("over-budget strict path accepted")
	}
}

// TestChainSingleBlockDirect covers the endpoints that come closest to
// sharing a block: S_5 neighbors across dimension 2, which agree at
// every position but 2 and so would share a block under any other
// first partition position. The first position always separates s from
// t, so their blocks sit at the two ends of a chain of five, and the
// fault-free path must still be Hamiltonian.
func TestChainSingleBlockDirect(t *testing.T) {
	n := 5
	fs := faults.NewSet(n)
	s := perm.IdentityCode(n)
	tt := s.SwapFirst(2)
	res, err := EmbedPath(n, fs, s, tt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent endpoints, fault-free: a Hamiltonian path.
	if res.Len() != perm.Factorial(n) {
		t.Fatalf("path %d", res.Len())
	}
}
