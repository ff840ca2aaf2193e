package superring

import (
	"fmt"

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
	// that is adjacent to child. Find the extra fixed position.
	for i := 2; i <= child.N(); i++ {
		cs := child.SymbolAt(i)
		if cs == substar.Star || parent.SymbolAt(i) != substar.Star {
			continue
		}
		// i is the freshly fixed position; the sibling in parent with
		// the same symbol at i is adjacent to child unless the symbol is
		// not free in parent.
		free := false
		for _, q := range parent.FreeSymbols(nil) {
			if q == cs {
				free = true
				break
			}
		}
		if !free {
			return false
		}
		return child.Adjacent(parent.Fix(i, cs))
	}
	return false
}

// Validate re-runs the structural invariants (adjacency along every
// superedge, uniform order, distinctness, and an open ring's anchors at
// its ends) and returns a descriptive error on the first violation. The
// constructors establish the same invariants; Validate lets tests
// re-check rings after manipulation.
func (r *Ring) Validate() error {
	seen := make(map[substar.Pattern]bool, len(r.verts))
	for i, v := range r.verts {
		if seen[v] {
			return fmt.Errorf("superring: supervertex %v occurs twice", v)
		}
		seen[v] = true
		if v.R() != r.order {
			return fmt.Errorf("superring: supervertex %d has order %d, want %d", i, v.R(), r.order)
		}
		if i < r.superedges() && !v.Adjacent(r.At(i+1)) {
			return fmt.Errorf("superring: supervertices %d and %d not adjacent", i, (i+1)%len(r.verts))
		}
	}
	if r.open && !(r.verts[0].Contains(r.s) && r.verts[len(r.verts)-1].Contains(r.t)) {
		return fmt.Errorf("superring: open ring's ends do not hold its anchors")
	}
	return nil
}
