package superring

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/perm"
	"repro/internal/substar"
)

// P1 reports whether every supervertex of the ring contains at most one
// fault witness (the paper's property (P1) for the R4).
func (r *Ring) P1(faultCount func(substar.Pattern) int) bool {
	for _, v := range r.verts {
		if faultCount(v) > 1 {
			return false
		}
	}
	return true
}

// P2 reports whether for every three consecutive supervertices U, V, W
// of a closed ring the paper's condition u_dif(U,V) != w_dif(V,W) holds
// (property (P2)).
// By Lemma 1 this guarantees that after a further partition every child
// of V is connected to U or to W.
func (r *Ring) P2() bool {
	return r.FirstP2Violation() == -1
}

// FirstP2Violation returns the index of the middle supervertex of the
// first violating triple, or -1 when (P2) holds everywhere.
func (r *Ring) FirstP2Violation() int {
	m := len(r.verts)
	for i := 0; i < m; i++ {
		u := r.At(i - 1)
		v := r.verts[i]
		w := r.At(i + 1)
		p := u.Dif(v)
		q := v.Dif(w)
		if p == 0 || q == 0 {
			return i
		}
		if u.SymbolAt(p) == w.SymbolAt(q) {
			return i
		}
	}
	return -1
}

// P3 reports whether no two consecutive supervertices of a closed ring
// are both faulty (property (P3)).
func (r *Ring) P3(faultCount func(substar.Pattern) int) bool {
	m := len(r.verts)
	for i := 0; i < m; i++ {
		if faultCount(r.verts[i]) > 0 && faultCount(r.At(i+1)) > 0 {
			return false
		}
	}
	return true
}

// Lemma1ChildrenConnected checks the conclusion of Lemma 1 for the
// middle supervertex V of a consecutive triple (U, V, W) after a
// pos-partition: every child of V must be adjacent to U or to W. It is
// used by tests to validate the refinement machinery against the
// paper's statement.
func Lemma1ChildrenConnected(u, v, w substar.Pattern, pos int) bool {
	for _, child := range v.Partition(pos) {
		if childAdjacentTo(child, u) || childAdjacentTo(child, w) {
			continue
		}
		return false
	}
	return true
}

// childAdjacentTo reports whether any cross edge joins the child pattern
// to some child of the neighboring parent pattern after the parent is
// partitioned at the same position; equivalently, the child is not the
// blocked child. The child has one more fixed position than the parent.
func childAdjacentTo(child, parent substar.Pattern) bool {
	// child is adjacent to parent's partition iff fixing the same
	// position of parent with the same symbol yields a valid pattern
	// that is adjacent to child. The freshly fixed position is one free
	// in parent but not in child.
	fresh := parent.FreePositionMask() &^ child.FreePositionMask()
	if fresh == 0 {
		return false
	}
	i := bits.TrailingZeros32(fresh) + 1
	cs := child.SymbolAt(i)
	// The sibling in parent with the same symbol at i is adjacent to
	// child unless the symbol is not free in parent.
	if parent.FreeSymbolMask()&(1<<(cs-1)) == 0 {
		return false
	}
	return child.Adjacent(parent.Fix(i, cs))
}

// Validate re-runs the structural invariants (one dimension and one
// set of free positions, hence one order, for every supervertex;
// adjacency along every superedge; distinctness; and an open ring's
// anchors at its ends) and returns a descriptive error on the first
// violation. The constructors establish the same invariants; Validate
// lets tests re-check rings after manipulation.
func (r *Ring) Validate() error {
	if len(r.verts) < 3 {
		return fmt.Errorf("superring: ring needs >= 3 supervertices, got %d", len(r.verts))
	}
	shape := r.verts[0]
	for i, v := range r.verts {
		if v.R() != r.order {
			return fmt.Errorf("superring: supervertex %d has order %d, want %d", i, v.R(), r.order)
		}
		if v.N() != r.n || v.FreePositionMask() != shape.FreePositionMask() {
			return fmt.Errorf("superring: supervertex %d (%v) does not share the free positions of supervertex 0 (%v)", i, v, shape)
		}
		if i < r.superedges() && !v.Adjacent(r.At(i+1)) {
			return fmt.Errorf("superring: supervertices %d and %d not adjacent", i, (i+1)%len(r.verts))
		}
	}
	if i := r.firstRepeat(); i >= 0 {
		return fmt.Errorf("superring: supervertex %v occurs twice", r.verts[i])
	}
	if r.open && !(r.verts[0].Contains(r.s) && r.verts[len(r.verts)-1].Contains(r.t)) {
		return fmt.Errorf("superring: open ring's ends do not hold its anchors")
	}
	return nil
}

// firstRepeat returns the index of the first supervertex equal to an
// earlier one, or -1. The supervertices share their free positions, so
// two are equal exactly when the ranks of their fixed symbols
// (substar.Pattern.RankOf) are, and one bitset over the ranks finds the
// repeat. The bitset spans all n!/r! ranks when that is at most 64 per
// supervertex, as it is for every ring the refinement builds. A sparser
// ring, such as a short hand-built one at n = 16, first has each rank
// replaced by its index among the sorted ranks, so the bitset spans the
// ring's length instead of the rank space.
func (r *Ring) firstRepeat() int {
	m := len(r.verts)
	shape := r.verts[0]
	space := perm.Factorial(r.n) / perm.Factorial(r.order)
	var compact []int // sparse rings only: each supervertex's index among the sorted ranks
	if space/64 > m {
		compact = make([]int, m)
		for i, v := range r.verts {
			compact[i] = shape.RankOf(v.Fixed())
		}
		sorted := slices.Clone(compact)
		slices.Sort(sorted)
		for i, k := range compact {
			compact[i], _ = slices.BinarySearch(sorted, k)
		}
		space = m
	}
	seen := make([]uint64, (space+63)/64)
	for i, v := range r.verts {
		var k int
		if compact != nil {
			k = compact[i]
		} else {
			k = shape.RankOf(v.Fixed())
		}
		if seen[k/64]&(1<<(k%64)) != 0 {
			return i
		}
		seen[k/64] |= 1 << (k % 64)
	}
	return -1
}
