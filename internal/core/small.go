package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/substar"
)

// embedSmall handles n <= 4 by direct construction. Its cycle becomes
// a skeleton of one block and no index: the plan reads it through the
// same per-block replay as a routed ring, and every repair rebuilds.
func embedSmall(n int, fs *faults.Set) (*skeleton, error) {
	var cycle []perm.Code
	var err error
	if n == 3 {
		cycle, err = embedS3(fs)
	} else {
		cycle, err = embedS4(fs)
	}
	if err != nil {
		return nil, err
	}
	return oneBlock(cycle)
}

// embedS3 handles the degenerate base S_3, which is itself a 6-cycle:
// the only healthy ring is the whole graph, so any fault (possible only
// in best-effort mode, since the budget n-3 is zero) is fatal.
func embedS3(fs *faults.Set) ([]perm.Code, error) {
	if fs.NumVertices() > 0 || fs.NumEdges() > 0 {
		return nil, fmt.Errorf("%w: S_3 is a single 6-cycle; removing anything leaves no cycle", ErrNoRing)
	}
	g := star.New(3)
	// Walk the 6-cycle: alternate dimensions 2 and 3.
	v := perm.IdentityCode(3)
	ring := make([]perm.Code, 0, 6)
	dim := 2
	for i := 0; i < 6; i++ {
		ring = append(ring, v)
		v = v.SwapFirst(dim)
		dim = 5 - dim // alternate 2 <-> 3
	}
	if !g.Adjacent(ring[len(ring)-1], ring[0]) {
		return nil, fmt.Errorf("core: internal: S_3 walk did not close")
	}
	return ring, nil
}

// embedS4 handles the base case n = 4 of Theorem 1 directly on the
// canonical S4 (Lemma 4's graph): with no faults the ring is a
// Hamiltonian cycle (24); with one vertex fault the exact search yields
// the bipartite-optimal 22-cycle; with one edge fault the cycle remains
// Hamiltonian (the edge-fault companion result). Best-effort mode
// accepts any fault set and returns the longest cycle found.
func embedS4(fs *faults.Set) ([]perm.Code, error) {
	whole := substar.Whole(4)
	block, err := pathsearch.NewBlock(whole)
	if err != nil {
		return nil, fmt.Errorf("core: internal: %w", err)
	}
	var forbV uint32
	for _, v := range fs.Vertices() {
		idx, ok := block.ToCanon(v)
		if !ok {
			return nil, fmt.Errorf("core: internal: fault outside S_4")
		}
		forbV |= 1 << uint(idx)
	}
	var forbE []pathsearch.Edge
	for _, e := range fs.Edges() {
		ce, ok := block.CanonEdge(e.U, e.V)
		if !ok {
			return nil, fmt.Errorf("core: internal: faulty edge outside S_4")
		}
		forbE = append(forbE, ce)
	}
	cycle, n := pathsearch.Canon.LongestCycleAvoiding(forbV, forbE)
	if n == 0 {
		return nil, fmt.Errorf("%w: S_4 with %d vertex and %d edge faults", ErrNoRing, fs.NumVertices(), fs.NumEdges())
	}
	ring := make([]perm.Code, n)
	for i, idx := range cycle {
		ring[i] = block.FromCanon(idx)
	}
	return ring, nil
}
