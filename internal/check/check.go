// Package check independently verifies embedding artifacts. The
// embedders in internal/core and internal/baseline re-check their own
// output through this package before returning, so construction bugs
// surface as errors rather than as silently invalid rings.
package check

import (
	"errors"

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
	_, err := RingStream(g, sliceNext(cycle), fs, minLen)
	return err
}

// sliceNext walks vs in the iterator shape the stream verifiers read.
func sliceNext(vs []perm.Code) func() (perm.Code, bool) {
	i := 0
	return func() (perm.Code, bool) {
		if i == len(vs) {
			return 0, false
		}
		i++
		return vs[i-1], true
	}
}

// Path verifies that path is a healthy simple path of S_n from s to t
// with at least minLen vertices: consecutive adjacency without the
// wraparound, distinctness, healthiness. It is PathStream over the
// slice.
func Path(g star.Graph, path []perm.Code, fs *faults.Set, s, t perm.Code, minLen int) error {
	_, err := PathStream(g, sliceNext(path), fs, s, t, minLen)
	return err
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
