// Package faults models vertex and edge faults in a star graph and
// implements the paper's Lemma 2: the greedy choice of partition
// positions a1, ..., a_{n-4} under which every resulting 4-dimensional
// substar contains at most one vertex fault. It also provides the fault
// generators used by the evaluation harness: uniform, same-partite
// (the worst case that makes the paper's bound tight), clustered (the
// regime of the Latifi-Bagherzadeh baseline) and adversarially spread.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/perm"
	"repro/internal/substar"
)

// Edge is an undirected edge of S_n, stored with U the smaller code so
// that Edge values compare equal regardless of orientation.
type Edge struct {
	U, V perm.Code
}

// NewEdge normalizes the endpoint order.
func NewEdge(u, v perm.Code) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Set is a collection of vertex and edge faults in S_n. The zero value
// is unusable; construct with NewSet.
type Set struct {
	n        int
	vertices map[perm.Code]bool
	edges    map[Edge]bool
	vlist    []perm.Code // insertion-ordered, deduplicated
	elist    []Edge
}

// NewSet returns an empty fault set for S_n.
func NewSet(n int) *Set {
	return &Set{
		n:        n,
		vertices: make(map[perm.Code]bool),
		edges:    make(map[Edge]bool),
	}
}

// N returns the dimension of the host graph.
func (s *Set) N() int { return s.n }

// AddVertex marks v faulty. Adding a vertex twice is a no-op.
func (s *Set) AddVertex(v perm.Code) error {
	if !v.Valid(s.n) {
		return fmt.Errorf("faults: %#v is not a vertex of S_%d", v, s.n)
	}
	s.addVertex(v)
	return nil
}

// addVertex inserts a vertex already known to be valid (generated by
// Unrank or copied from another Set), bypassing validation so callers
// need not handle an impossible error.
func (s *Set) addVertex(v perm.Code) {
	if s.vertices[v] {
		return
	}
	s.vertices[v] = true
	s.vlist = append(s.vlist, v)
}

// AddVertexString marks the vertex written in permutation notation
// (e.g. "21345") faulty.
func (s *Set) AddVertexString(str string) error {
	v, err := perm.ParseCode(str, s.n)
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	return s.AddVertex(v)
}

// AddEdge marks the edge {u, v} faulty. Both endpoints must be
// vertices of S_n; they themselves remain healthy. Adding an edge twice
// is a no-op.
func (s *Set) AddEdge(u, v perm.Code) error {
	for _, x := range [2]perm.Code{u, v} {
		if !x.Valid(s.n) {
			return fmt.Errorf("faults: %#v is not a vertex of S_%d", x, s.n)
		}
	}
	if !perm.Adjacent(u, v, s.n) {
		return fmt.Errorf("faults: %s and %s are not adjacent in S_%d",
			u.StringN(s.n), v.StringN(s.n), s.n)
	}
	s.addEdge(NewEdge(u, v))
	return nil
}

// AddEdgeString marks the edge written "u-v" in permutation notation
// (e.g. "12345-21345") faulty.
func (s *Set) AddEdgeString(str string) error {
	us, vs, ok := strings.Cut(str, "-")
	if !ok {
		return fmt.Errorf("faults: bad edge %q, want u-v", str)
	}
	u, err := perm.ParseCode(us, s.n)
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	v, err := perm.ParseCode(vs, s.n)
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	return s.AddEdge(u, v)
}

// addEdge inserts an edge already known to join adjacent vertices,
// bypassing validation.
func (s *Set) addEdge(e Edge) {
	if s.edges[e] {
		return
	}
	s.edges[e] = true
	s.elist = append(s.elist, e)
}

// HasVertex reports whether v is a faulty vertex.
func (s *Set) HasVertex(v perm.Code) bool { return s.vertices[v] }

// HasEdge reports whether the edge {u, v} is faulty.
func (s *Set) HasEdge(u, v perm.Code) bool { return s.edges[NewEdge(u, v)] }

// NumVertices returns |Fv|.
func (s *Set) NumVertices() int { return len(s.vlist) }

// NumEdges returns |Fe|.
func (s *Set) NumEdges() int { return len(s.elist) }

// Vertices returns the faulty vertices in insertion order. The caller
// must not modify the returned slice.
func (s *Set) Vertices() []perm.Code { return s.vlist }

// Edges returns the faulty edges in insertion order. The caller must not
// modify the returned slice.
func (s *Set) Edges() []Edge { return s.elist }

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet(s.n)
	for _, v := range s.vlist {
		c.addVertex(v)
	}
	for _, e := range s.elist {
		c.addEdge(e)
	}
	return c
}

// CountIn returns the number of faulty vertices lying inside the given
// substar pattern.
func (s *Set) CountIn(p substar.Pattern) int { return p.Count(s.vlist) }

// FaultyIn appends the faulty vertices inside pattern p to dst.
func (s *Set) FaultyIn(p substar.Pattern, dst []perm.Code) []perm.Code {
	for _, v := range s.vlist {
		if p.Contains(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// IntraEdgesIn appends to dst the faulty edges whose two endpoints both
// lie inside pattern p.
func (s *Set) IntraEdgesIn(p substar.Pattern, dst []Edge) []Edge {
	for _, e := range s.elist {
		if p.Contains(e.U) && p.Contains(e.V) {
			dst = append(dst, e)
		}
	}
	return dst
}

// String names the set's faults for diagnostics, in insertion order and
// in the notation AddVertexString and AddEdgeString read, so an error
// that prints a set reproduces it: faults.Set{n=5, Fv=[12345 31245],
// Fe=[]}.
func (s *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults.Set{n=%d, Fv=[", s.n)
	for i, v := range s.vlist {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.StringN(s.n))
	}
	b.WriteString("], Fe=[")
	for i, e := range s.elist {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.U.StringN(s.n) + "-" + e.V.StringN(s.n))
	}
	b.WriteString("]}")
	return b.String()
}

// SeparatingPositions implements Lemma 2. It returns a sequence of
// n-4 distinct positions a1, ..., a_{n-4} (each in 2..n) such that after
// the (a1, ..., a_{n-4})-partition of S_n every 4-dimensional substar
// contains at most one fault witness. Witnesses are the faulty vertices
// plus, for each faulty edge, its smaller endpoint; separating edge
// witnesses steers edge faults toward distinct blocks (or across block
// boundaries) exactly as the vertex argument of Lemma 2 requires.
//
// The greedy invariant mirrors the paper's proof: each chosen position
// splits at least one group of witnesses that still agree on all chosen
// positions, so after k positions there are at least min(|W|, k+1)
// groups. With |W| <= n-3 witnesses the n-4 positions therefore leave
// every group a singleton, and (as Lemma 3's proof uses) after the first
// n-5 positions at most one group of size two can remain.
//
// The function never fails for |witnesses| <= n-3; for larger sets it
// still returns a best-effort sequence (used by the best-effort embedder)
// and reports whether full separation was achieved.
func (s *Set) SeparatingPositions() (positions []int, separated bool) {
	return s.separate(0)
}

// SeparatingPositionsSplitting is SeparatingPositions with the extra
// requirement that the FIRST position distinguishes the two given
// vertices (they must hold different symbols there). The longest-path
// embedder needs this so that its source and target anchor opposite
// ends of the supervertex chain from the very first partition. Among
// the distinguishing positions, the one splitting the most fault
// groups is chosen, keeping the remaining greedy as effective as
// possible; full separation can occasionally become impossible when the
// forced position wastes the budget, which the flag reports.
func (s *Set) SeparatingPositionsSplitting(a, b perm.Code) (positions []int, separated bool, err error) {
	if s.n < 5 {
		return nil, true, nil
	}
	best, bestScore := 0, -1
	for i := 2; i <= s.n; i++ {
		if a.Symbol(i) == b.Symbol(i) {
			continue
		}
		score := s.bestSplitScoreAt(i)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best == 0 {
		return nil, false, fmt.Errorf("faults: vertices %s and %s agree at every position >= 2",
			a.StringN(s.n), b.StringN(s.n))
	}
	positions, separated = s.separate(best)
	return positions, separated, nil
}

// bestSplitScoreAt scores how many witness subgroups fixing position i
// would create beyond one, against the unpartitioned witness set.
func (s *Set) bestSplitScoreAt(i int) int {
	w := s.witnesses()
	if len(w) < 2 {
		return 0
	}
	var seen uint32
	k := 0
	for _, v := range w {
		bit := uint32(1) << (v.Symbol(i) - 1)
		if seen&bit == 0 {
			seen |= bit
			k++
		}
	}
	return k - 1
}

// separate runs the greedy with an optional forced first position
// (0 = unconstrained).
func (s *Set) separate(first int) (positions []int, separated bool) {
	n := s.n
	if n < 5 {
		return nil, true // S_4 is a single block; nothing to choose
	}
	witnesses := s.witnesses()
	need := n - 4

	chosen := make([]int, 0, need)
	used := make(map[int]bool, need)

	// groups[i] holds witnesses agreeing on every chosen position.
	groups := [][]perm.Code{witnesses}
	if len(witnesses) == 0 {
		groups = nil
	}
	if first != 0 {
		chosen = append(chosen, first)
		used[first] = true
		groups = splitGroups(groups, first)
	}

	for len(chosen) < need {
		pos := s.bestSplit(groups, used)
		if pos == 0 {
			// No multi-member group can be split by an unused position
			// (either all singletons already, or pathological overlap).
			// Fill with the smallest unused positions.
			for p := 2; p <= n && len(chosen) < need; p++ {
				if !used[p] {
					chosen = append(chosen, p)
					used[p] = true
					groups = splitGroups(groups, p)
				}
			}
			break
		}
		chosen = append(chosen, pos)
		used[pos] = true
		groups = splitGroups(groups, pos)
	}

	separated = true
	for _, g := range groups {
		if len(g) > 1 {
			separated = false
			break
		}
	}
	return chosen, separated
}

// witnesses returns the deduplicated separation witnesses: faulty
// vertices plus one endpoint per faulty edge.
func (s *Set) witnesses() []perm.Code {
	seen := make(map[perm.Code]bool, len(s.vlist)+len(s.elist))
	var w []perm.Code
	for _, v := range s.vlist {
		if !seen[v] {
			seen[v] = true
			w = append(w, v)
		}
	}
	for _, e := range s.elist {
		if !seen[e.U] {
			seen[e.U] = true
			w = append(w, e.U)
		}
	}
	return w
}

// bestSplit returns the unused position (2..n) that splits the largest
// number of currently-merged witness pairs, or 0 when no unused position
// splits any multi-member group.
func (s *Set) bestSplit(groups [][]perm.Code, used map[int]bool) int {
	best, bestScore := 0, 0
	for pos := 2; pos <= s.n; pos++ {
		if used[pos] {
			continue
		}
		score := 0
		for _, g := range groups {
			if len(g) < 2 {
				continue
			}
			// Count the distinct symbols group members hold at pos; a
			// position splits the group iff it sees >= 2 symbols. The
			// score is the resulting number of subgroups minus one,
			// summed over groups.
			var seen uint32
			k := 0
			for _, v := range g {
				bit := uint32(1) << (v.Symbol(pos) - 1)
				if seen&bit == 0 {
					seen |= bit
					k++
				}
			}
			score += k - 1
		}
		if score > bestScore {
			best, bestScore = pos, score
		}
	}
	return best
}

// splitGroups refines every group by the symbol its members hold at pos.
func splitGroups(groups [][]perm.Code, pos int) [][]perm.Code {
	var out [][]perm.Code
	for _, g := range groups {
		if len(g) == 1 {
			out = append(out, g)
			continue
		}
		bySym := make(map[uint8][]perm.Code)
		var order []uint8
		for _, v := range g {
			sym := v.Symbol(pos)
			if _, ok := bySym[sym]; !ok {
				order = append(order, sym)
			}
			bySym[sym] = append(bySym[sym], v)
		}
		sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
		for _, sym := range order {
			out = append(out, bySym[sym])
		}
	}
	return out
}

// MaxTolerated returns the paper's fault budget n-3 for S_n.
func MaxTolerated(n int) int {
	if n < 3 {
		return 0
	}
	return n - 3
}
