package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/perm"
	"repro/internal/substar"
)

// Generators produce reproducible fault sets for the evaluation harness.
// All take an explicit *rand.Rand so that experiments are seeded and
// repeatable.

// RandomVertices adds k distinct uniformly random faulty vertices.
func RandomVertices(n, k int, rng *rand.Rand) *Set {
	s := NewSet(n)
	total := perm.Factorial(n)
	for s.NumVertices() < k {
		v := perm.UnrankCode(n, rng.Intn(total))
		s.addVertex(v)
	}
	return s
}

// SamePartiteVertices adds k distinct random faulty vertices all drawn
// from one partite set (parity 0 or 1). This is the worst case of the
// paper: with all faults on one side of the bipartition, no cycle longer
// than n!-2k can avoid them, so the algorithm's output is exactly
// optimal on these sets.
func SamePartiteVertices(n, k, parity int, rng *rand.Rand) *Set {
	s := NewSet(n)
	total := perm.Factorial(n)
	for s.NumVertices() < k {
		v := perm.UnrankCode(n, rng.Intn(total))
		if v.Parity(n) != parity {
			continue
		}
		s.addVertex(v)
	}
	return s
}

// ClusteredVertices adds k distinct random faulty vertices all lying in
// one random embedded S_m (m >= 2, k <= m!). This is the regime the
// Latifi-Bagherzadeh baseline was designed for.
func ClusteredVertices(n, k, m int, rng *rand.Rand) (*Set, substar.Pattern, error) {
	if m < 2 || m > n {
		return nil, substar.Pattern{}, fmt.Errorf("faults: cluster order %d out of range [2,%d]", m, n)
	}
	if k > perm.Factorial(m) {
		return nil, substar.Pattern{}, fmt.Errorf("faults: %d faults cannot fit in an S_%d (%d vertices)", k, m, perm.Factorial(m))
	}
	// Pick a random embedded S_m: fix n-m random positions (>= 2) to the
	// symbols of a random permutation.
	base := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
	positions := rng.Perm(n - 1) // values 0..n-2 representing positions 2..n
	pattern := substar.Whole(n)
	for i := 0; i < n-m; i++ {
		pos := positions[i] + 2
		pattern = pattern.Fix(pos, base.Symbol(pos))
	}
	vertices := pattern.Vertices(nil)
	s := NewSet(n)
	order := rng.Perm(len(vertices))
	for i := 0; i < k; i++ {
		s.addVertex(vertices[order[i]])
	}
	return s, pattern, nil
}

// SpreadVertices adds k faulty vertices chosen greedily to be pairwise
// far apart: each new fault maximizes its minimum star-graph distance to
// the faults chosen so far, over a random candidate pool. This
// adversarially defeats clustering-based algorithms.
func SpreadVertices(n, k int, rng *rand.Rand, dist func(a, b perm.Code) int) *Set {
	const pool = 32
	s := NewSet(n)
	total := perm.Factorial(n)
	for s.NumVertices() < k {
		var best perm.Code
		bestScore := -1
		for c := 0; c < pool; c++ {
			v := perm.UnrankCode(n, rng.Intn(total))
			if s.HasVertex(v) {
				continue
			}
			score := 1 << 30
			for _, f := range s.Vertices() {
				if d := dist(v, f); d < score {
					score = d
				}
			}
			if s.NumVertices() == 0 {
				score = 0
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		if bestScore >= 0 {
			s.addVertex(best)
		}
	}
	return s
}

// RandomEdges adds k distinct uniformly random faulty edges.
func RandomEdges(n, k int, rng *rand.Rand) *Set {
	s := NewSet(n)
	total := perm.Factorial(n)
	for s.NumEdges() < k {
		u := perm.UnrankCode(n, rng.Intn(total))
		dim := 2 + rng.Intn(n-1)
		s.addEdge(NewEdge(u, u.SwapFirst(dim)))
	}
	return s
}

// Mixed adds kv random faulty vertices and ke random faulty edges, with
// no faulty edge incident to a faulty vertex (a faulty endpoint already
// removes its edges from consideration).
func Mixed(n, kv, ke int, rng *rand.Rand) *Set {
	s := NewSet(n)
	total := perm.Factorial(n)
	for s.NumVertices() < kv {
		s.addVertex(perm.UnrankCode(n, rng.Intn(total)))
	}
	for s.NumEdges() < ke {
		u := perm.UnrankCode(n, rng.Intn(total))
		dim := 2 + rng.Intn(n-1)
		v := u.SwapFirst(dim)
		if s.HasVertex(u) || s.HasVertex(v) {
			continue
		}
		s.addEdge(NewEdge(u, v))
	}
	return s
}

// FromStrings builds a vertex-fault set from permutation strings, for
// tests and the command-line tools.
func FromStrings(n int, vs ...string) (*Set, error) {
	s := NewSet(n)
	for _, str := range vs {
		if err := s.AddVertexString(str); err != nil {
			return nil, err
		}
	}
	return s, nil
}
