package superring

import (
	"fmt"
	"math/bits"

	"repro/internal/perm"
	"repro/internal/substar"
)

// Chain is the open-path counterpart of Ring: a sequence of
// pairwise-adjacent order-r substars WITHOUT the wraparound edge. It
// underlies the longest-path embedder (an extension beyond the paper;
// the authors' follow-up work studies exactly this problem): the chain
// is anchored so that its first supervertex always contains a
// designated source vertex and its last contains the designated target.
type Chain struct {
	n     int
	order int
	verts []substar.Pattern
}

// NewChain validates a sequence into a Chain (consecutive adjacency
// only; ends stay open).
func NewChain(n int, verts []substar.Pattern) (*Chain, error) {
	if len(verts) < 2 {
		return nil, fmt.Errorf("superring: chain needs >= 2 supervertices, got %d", len(verts))
	}
	order := verts[0].R()
	for i, v := range verts {
		if v.N() != n || v.R() != order {
			return nil, fmt.Errorf("superring: chain vertex %d has wrong shape", i)
		}
		if i+1 < len(verts) && !v.Adjacent(verts[i+1]) {
			return nil, fmt.Errorf("superring: chain vertices %d and %d not adjacent", i, i+1)
		}
	}
	return &Chain{n: n, order: order, verts: verts}, nil
}

// N returns the ambient dimension.
func (c *Chain) N() int { return c.n }

// Order returns the order of each supervertex.
func (c *Chain) Order() int { return c.order }

// Len returns the number of supervertices.
func (c *Chain) Len() int { return len(c.verts) }

// At returns supervertex i (no modular arithmetic: chains have ends).
func (c *Chain) At(i int) substar.Pattern { return c.verts[i] }

// Vertices returns the underlying slice; callers must not modify it.
func (c *Chain) Vertices() []substar.Pattern { return c.verts }

// InitialChain partitions S_n at pos and orders the children into a
// path from the child containing s to the child containing t (which
// must therefore hold different symbols at pos). Fault-bearing interior
// children are spread when requested.
func InitialChain(n, pos int, s, t perm.Code, opts Options) (*Chain, error) {
	if s.Symbol(pos) == t.Symbol(pos) {
		return nil, fmt.Errorf("superring: source and target agree at position %d; no chain anchors", pos)
	}
	children := substar.Whole(n).Partition(pos)
	var first, last substar.Pattern
	interior := children[:0:0]
	for _, ch := range children {
		switch {
		case ch.Contains(s):
			first = ch
		case ch.Contains(t):
			last = ch
		default:
			interior = append(interior, ch)
		}
	}
	ordered := arrangeInterior(interior, opts)
	verts := make([]substar.Pattern, 0, len(children))
	verts = append(verts, first)
	verts = append(verts, ordered...)
	verts = append(verts, last)
	return NewChain(n, verts)
}

// arrangeInterior spreads fault-bearing patterns so no two are
// consecutive when possible (a best-effort mirror of arrangeCycle for
// the open case, where the ends carry no constraint).
func arrangeInterior(ps []substar.Pattern, opts Options) []substar.Pattern {
	if !opts.SpreadFaults || opts.FaultCount == nil {
		return ps
	}
	var fs, hs []substar.Pattern
	for _, p := range ps {
		if opts.faultCount(p) > 0 {
			fs = append(fs, p)
		} else {
			hs = append(hs, p)
		}
	}
	out := make([]substar.Pattern, 0, len(ps))
	for len(fs) > 0 || len(hs) > 0 {
		if len(fs) > 0 {
			out = append(out, fs[0])
			fs = fs[1:]
		}
		if len(hs) > 0 {
			out = append(out, hs[0])
			hs = hs[1:]
		}
	}
	return out
}

// Refine performs the pos-partition on the chain exactly as
// Ring.Refine does on a ring, except that the first clique's entry is
// forced to the child containing s, the last clique's exit is forced to
// the child containing t, and there is no cyclic closure. The
// first/last-two-connected discipline applies at every interior
// junction, so the final chain of blocks enjoys (P2) at its interior
// triples.
func (c *Chain) Refine(pos int, s, t perm.Code, opts Options) (*Chain, error) {
	m := len(c.verts)
	cliques := make([][]substar.Pattern, m)
	blockedPrev := make([]substar.Pattern, m)
	blockedNext := make([]substar.Pattern, m)
	var none substar.Pattern // the zero Pattern matches no child
	for k := 0; k < m; k++ {
		all := c.verts[k].Partition(pos)
		kept := all[:0:0]
		for _, ch := range all {
			if !opts.excluded(ch) {
				kept = append(kept, ch)
			}
		}
		if len(kept) < 2 {
			return nil, fmt.Errorf("superring: chain clique %d too small after exclusion", k)
		}
		cliques[k] = kept
		if k > 0 {
			blockedPrev[k] = c.verts[k].BlockedChild(c.verts[k-1], pos)
		} else {
			blockedPrev[k] = none
		}
		if k+1 < m {
			blockedNext[k] = c.verts[k].BlockedChild(c.verts[k+1], pos)
		} else {
			blockedNext[k] = none
		}
	}

	// Junction symbols q_0..q_{m-2}: q_k joins clique k to k+1.
	candidates := make([][]uint8, m-1)
	for k := 0; k+1 < m; k++ {
		var cs []uint8
		for shared := sharedFreeSymbols(c.verts[k], c.verts[k+1]); shared != 0; shared &= shared - 1 {
			q := uint8(bits.TrailingZeros32(shared)) + 1
			exitChild := c.verts[k].Fix(pos, q)
			entryChild := c.verts[k+1].Fix(pos, q)
			if opts.excluded(exitChild) || opts.excluded(entryChild) {
				continue
			}
			if opts.HealthyJunctions && (opts.faultCount(exitChild) > 0 || opts.faultCount(entryChild) > 0) {
				continue
			}
			// The forced anchors may not double as junction children.
			if k == 0 && exitChild.Contains(s) {
				continue
			}
			if k+1 == m-1 && entryChild.Contains(t) {
				continue
			}
			cs = append(cs, q)
		}
		if len(cs) == 0 {
			return nil, fmt.Errorf("%w: chain junction %d has no candidate", ErrUnsatisfiable, k)
		}
		candidates[k] = cs
	}

	// entryOf returns the forced entry child of clique k given the
	// junction symbols chosen so far.
	qs := make([]uint8, m-1)
	entryOf := func(k int) substar.Pattern {
		if k == 0 {
			return substar.PatternOf(c.n, s, fixedPositions(cliques[0][0]))
		}
		return c.verts[k].Fix(pos, qs[k-1])
	}
	exitForced := substar.PatternOf(c.n, t, fixedPositions(cliques[m-1][0]))

	feasible := func(k int) bool {
		entry := entryOf(k)
		var exit substar.Pattern
		if k == m-1 {
			exit = exitForced
		} else {
			exit = c.verts[k].Fix(pos, qs[k])
		}
		var buf [perm.MaxN]substar.Pattern
		_, ok := orderClique(buf[:0], cliques[k], entry, exit, blockedPrev[k], blockedNext[k], opts)
		return ok
	}

	// Sequential scan with backtracking over the m-1 junctions; clique k
	// becomes checkable once junction k is set (or, for the last clique,
	// once junction m-2 is set).
	idx := make([]int, m-1)
	const maxSteps = 1 << 16
	steps := 0
	k := 0
	for k < m-1 {
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("%w: chain junction search exceeded budget", ErrUnsatisfiable)
		}
		if idx[k] >= len(candidates[k]) {
			idx[k] = 0
			k--
			if k < 0 {
				return nil, fmt.Errorf("%w: no junction assignment threads the chain", ErrUnsatisfiable)
			}
			idx[k]++
			continue
		}
		qs[k] = candidates[k][idx[k]]
		ok := feasible(k)
		if ok && k == m-2 && !feasible(m-1) {
			ok = false
		}
		if !ok {
			idx[k]++
			continue
		}
		k++
	}
	if m == 1 {
		return nil, fmt.Errorf("superring: refining a single-clique chain is unsupported")
	}

	var out []substar.Pattern
	for k := 0; k < m; k++ {
		entry := entryOf(k)
		var exit substar.Pattern
		if k == m-1 {
			exit = exitForced
		} else {
			exit = c.verts[k].Fix(pos, qs[k])
		}
		var ok bool
		if out, ok = orderClique(out, cliques[k], entry, exit, blockedPrev[k], blockedNext[k], opts); !ok {
			return nil, fmt.Errorf("%w: chain clique %d lost feasibility", ErrUnsatisfiable, k)
		}
	}
	return NewChain(c.n, out)
}

// fixedPositions lists the fixed positions of a pattern (>= 2), used to
// project a concrete vertex onto the pattern containing it at the
// current refinement level.
func fixedPositions(p substar.Pattern) []int {
	var out []int
	for i := 2; i <= p.N(); i++ {
		if p.SymbolAt(i) != substar.Star {
			out = append(out, i)
		}
	}
	return out
}

// Validate re-checks the chain's structural invariants.
func (c *Chain) Validate() error {
	seen := make(map[substar.Pattern]bool, len(c.verts))
	for i, v := range c.verts {
		if seen[v] {
			return fmt.Errorf("superring: chain supervertex %v occurs twice", v)
		}
		seen[v] = true
		if v.R() != c.order {
			return fmt.Errorf("superring: chain supervertex %d has order %d", i, v.R())
		}
		if i+1 < len(c.verts) && !v.Adjacent(c.verts[i+1]) {
			return fmt.Errorf("superring: chain break between %d and %d", i, i+1)
		}
	}
	return nil
}

// P1 mirrors Ring.P1 for chains.
func (c *Chain) P1(faultCount func(substar.Pattern) int) bool {
	for _, v := range c.verts {
		if faultCount(v) > 1 {
			return false
		}
	}
	return true
}
