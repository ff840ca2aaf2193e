// Package check independently verifies embedding artifacts. The
// embedders in internal/core and internal/baseline re-check their own
// output through this package before returning, so construction bugs
// surface as errors rather than as silently invalid rings.
package check

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// ErrInvalidRing is wrapped by every verification failure.
var ErrInvalidRing = errors.New("check: invalid ring")

// Ring verifies that cycle is a healthy simple cycle of S_n of length at
// least minLen: consecutive vertices (including the wraparound) must be
// adjacent, no vertex may repeat, no vertex may be faulty, and no used
// edge may be faulty. fs may be nil for the fault-free case. A slice is
// just a stream: this is RingStream over the slice, so every caller
// runs the one verifier.
func Ring(g star.Graph, cycle []perm.Code, fs *faults.Set, minLen int) error {
	i := 0
	_, err := RingStream(g, func() (perm.Code, bool) {
		if i == len(cycle) {
			return 0, false
		}
		i++
		return cycle[i-1], true
	}, fs, minLen)
	return err
}

// Path verifies that path is a healthy simple path of S_n: consecutive
// adjacency without the wraparound, distinctness, healthiness.
func Path(g star.Graph, path []perm.Code, fs *faults.Set) error {
	n := g.N()
	if len(path) == 0 {
		return fmt.Errorf("%w: empty path", ErrInvalidRing)
	}
	seen := make(map[perm.Code]int, len(path))
	for i, v := range path {
		if !v.Valid(n) {
			return fmt.Errorf("%w: entry %d is not a vertex of S_%d", ErrInvalidRing, i, n)
		}
		if j, dup := seen[v]; dup {
			return fmt.Errorf("%w: vertex %s repeats at positions %d and %d", ErrInvalidRing, v.StringN(n), j, i)
		}
		seen[v] = i
		if fs != nil && fs.HasVertex(v) {
			return fmt.Errorf("%w: faulty vertex %s at position %d", ErrInvalidRing, v.StringN(n), i)
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if !g.Adjacent(path[i], path[i+1]) {
			return fmt.Errorf("%w: %s and %s (positions %d, %d) are not adjacent",
				ErrInvalidRing, path[i].StringN(n), path[i+1].StringN(n), i, i+1)
		}
		if fs != nil && fs.HasEdge(path[i], path[i+1]) {
			return fmt.Errorf("%w: faulty edge {%s, %s} used", ErrInvalidRing, path[i].StringN(n), path[i+1].StringN(n))
		}
	}
	return nil
}

// BipartiteUpperBound returns the largest possible length of any healthy
// cycle given the vertex faults: a cycle of a bipartite graph alternates
// sides, so it uses the same number of vertices from each partite set,
// and each side offers n!/2 minus its faults. The bound is
// n! - 2*max(f0, f1) where f0, f1 count faults per side. When all faults
// share one side this equals the paper's n! - 2|Fv|, which is why the
// paper's result is worst-case optimal.
func BipartiteUpperBound(n int, fs *faults.Set) int {
	half := perm.Factorial(n) / 2
	f0, f1 := 0, 0
	if fs != nil {
		for _, v := range fs.Vertices() {
			if v.Parity(n) == 0 {
				f0++
			} else {
				f1++
			}
		}
	}
	m := f0
	if f1 > m {
		m = f1
	}
	return 2 * (half - m)
}

// GuaranteeHCH returns the paper's guaranteed ring length n! - 2|Fv|.
func GuaranteeHCH(n, numVertexFaults int) int {
	return perm.Factorial(n) - 2*numVertexFaults
}

// GuaranteeTseng returns the prior guarantee n! - 4|Fv| of Tseng, Chang
// and Sheu.
func GuaranteeTseng(n, numVertexFaults int) int {
	return perm.Factorial(n) - 4*numVertexFaults
}

// GuaranteeLatifi returns the clustered guarantee n! - m! of Latifi and
// Bagherzadeh, where all faults lie inside one embedded S_m.
func GuaranteeLatifi(n, m int) int {
	return perm.Factorial(n) - perm.Factorial(m)
}
