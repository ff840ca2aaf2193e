// Package substar implements the embedded-substar algebra of the paper
// (Definitions 1-5): patterns <s1 s2 ... sn>_r denoting embedded copies
// of S_r inside S_n, i-partitions and (i1,...,im)-partitions, pattern
// adjacency with its dif position, and the blocked-child rule that
// drives entry/exit selection in the super-ring machinery.
package substar

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/perm"
)

// Star is the "don't care" symbol of the paper, printed as '*'.
const Star uint8 = 0

// Pattern is an embedded substar <s1 s2 ... sn>_r of S_n: position i
// holds either a fixed symbol (1..n) or Star. Position 1 is always Star
// (the paper's s1 = *), and the number of Star positions is the order r
// of the embedded star graph. Pattern is a comparable value type and can
// key maps directly.
type Pattern struct {
	n    uint8
	syms [perm.MaxN]uint8 // syms[i] = symbol fixed at position i+1, or Star
}

// Whole returns the pattern <* * ... *>_n representing all of S_n.
func Whole(n int) Pattern {
	if n < 1 || n > perm.MaxN {
		mustFailf("substar: dimension %d out of range [1,%d]", n, perm.MaxN)
	}
	return Pattern{n: uint8(n)}
}

// mustFailf is the package's invariant helper: it panics with a
// formatted message. Callers test the invariant themselves and call it
// only from the failing branch, so the message arguments — a boxed
// copy of the pattern, on Fix's every call — are built only when a
// check fails. Used only for programmer-error preconditions, never
// data-dependent conditions.
func mustFailf(format string, args ...interface{}) {
	panic(fmt.Sprintf(format, args...))
}

// FromSymbols builds a pattern from a slice where entry i is the symbol
// fixed at position i+1 or Star. It validates the paper's invariants:
// position 1 free, fixed symbols distinct and within 1..n.
func FromSymbols(n int, symbols []uint8) (Pattern, error) {
	if n < 1 || n > perm.MaxN || len(symbols) != n {
		return Pattern{}, fmt.Errorf("substar: bad symbol slice length %d for n=%d", len(symbols), n)
	}
	var p Pattern
	p.n = uint8(n)
	var seen uint32
	for i, s := range symbols {
		if s == Star {
			continue
		}
		if i == 0 {
			return Pattern{}, fmt.Errorf("substar: position 1 must be free in %v", symbols)
		}
		if s < 1 || int(s) > n {
			return Pattern{}, fmt.Errorf("substar: symbol %d out of range at position %d", s, i+1)
		}
		bit := uint32(1) << (s - 1)
		if seen&bit != 0 {
			return Pattern{}, fmt.Errorf("substar: duplicate symbol %d", s)
		}
		seen |= bit
		p.syms[i] = s
	}
	return p, nil
}

// MustFromSymbols is FromSymbols, panicking on invalid input.
func MustFromSymbols(n int, symbols ...uint8) Pattern {
	p, err := FromSymbols(n, symbols)
	if err != nil {
		panic(err)
	}
	return p
}

// Parse reads the paper's notation without angle brackets: one character
// per position, '*' for don't-care, digits/letters for fixed symbols.
// For example Parse("**3*5") is <* * 3 * 5>_3 inside S_5.
func Parse(s string) (Pattern, error) {
	const symbolRunes = "123456789abcdefg"
	n := len(s)
	symbols := make([]uint8, 0, n)
	for _, r := range s {
		if r == '*' {
			symbols = append(symbols, Star)
			continue
		}
		idx := strings.IndexRune(symbolRunes, r)
		if idx < 0 {
			return Pattern{}, fmt.Errorf("substar: bad character %q in %q", r, s)
		}
		symbols = append(symbols, uint8(idx+1))
	}
	return FromSymbols(n, symbols)
}

// MustParse is Parse, panicking on invalid input.
func MustParse(s string) Pattern {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the dimension of the ambient star graph S_n.
func (p Pattern) N() int { return int(p.n) }

// R returns the order of the embedded star graph: the number of free
// (don't care) positions.
func (p Pattern) R() int {
	r := 0
	for i := 0; i < int(p.n); i++ {
		if p.syms[i] == Star {
			r++
		}
	}
	return r
}

// Order returns the number of vertices of the embedded substar, R()!.
func (p Pattern) Order() int { return perm.Factorial(p.R()) }

// SymbolAt returns the fixed symbol at 1-based position i, or Star.
func (p Pattern) SymbolAt(i int) uint8 { return p.syms[i-1] }

// String renders the pattern in the paper's notation, e.g. "<**21>_2".
func (p Pattern) String() string {
	const symbolRunes = "123456789abcdefg"
	var b strings.Builder
	b.WriteByte('<')
	for i := 0; i < int(p.n); i++ {
		if p.syms[i] == Star {
			b.WriteByte('*')
		} else {
			b.WriteByte(symbolRunes[p.syms[i]-1])
		}
	}
	fmt.Fprintf(&b, ">_%d", p.R())
	return b.String()
}

// FreePositions appends the 1-based free positions of p to dst in
// increasing order. Position 1 is always first.
func (p Pattern) FreePositions(dst []int) []int {
	for i := 0; i < int(p.n); i++ {
		if p.syms[i] == Star {
			dst = append(dst, i+1)
		}
	}
	return dst
}

// FreeSymbols appends the symbols not fixed anywhere in p to dst in
// increasing order; these are the symbols that populate the free
// positions of the embedded substar's vertices.
func (p Pattern) FreeSymbols(dst []uint8) []uint8 {
	var used uint32
	for i := 0; i < int(p.n); i++ {
		if s := p.syms[i]; s != Star {
			used |= 1 << (s - 1)
		}
	}
	for s := uint8(1); int(s) <= int(p.n); s++ {
		if used&(1<<(s-1)) == 0 {
			dst = append(dst, s)
		}
	}
	return dst
}

// Contains reports whether vertex v of S_n belongs to the substar.
func (p Pattern) Contains(v perm.Code) bool {
	for i := 1; i <= int(p.n); i++ {
		if s := p.syms[i-1]; s != Star && v.Symbol(i) != s {
			return false
		}
	}
	return true
}

// Fix returns a copy of p with 1-based position i (currently free,
// i >= 2) fixed to symbol q (currently unused). It panics when the
// operation would break the pattern invariants; this is the primitive
// behind Partition.
func (p Pattern) Fix(i int, q uint8) Pattern {
	if i < 2 || i > int(p.n) {
		mustFailf("substar: Fix position %d out of range [2,%d]", i, p.n)
	}
	if p.syms[i-1] != Star {
		mustFailf("substar: Fix position %d of %v is not free", i, p)
	}
	if q < 1 || int(q) > int(p.n) {
		mustFailf("substar: Fix symbol %d out of range", q)
	}
	for j := 0; j < int(p.n); j++ {
		if p.syms[j] == q {
			mustFailf("substar: Fix symbol %d already used in %v", q, p)
		}
	}
	p.syms[i-1] = q
	return p
}

// Partition performs the paper's i-partition (Definition 2): it splits
// the order-r substar into r substars of order r-1, one per free symbol
// q, each with position i fixed to q. The children are returned in
// increasing symbol order. Position i must be free and i >= 2.
func (p Pattern) Partition(i int) []Pattern {
	return p.AppendPartition(make([]Pattern, 0, p.R()), i)
}

// AppendPartition is Partition appending the children to dst, so a
// caller partitioning many patterns can back every child list with one
// array.
func (p Pattern) AppendPartition(dst []Pattern, i int) []Pattern {
	var buf [perm.MaxN]uint8
	for _, q := range p.FreeSymbols(buf[:0]) {
		dst = append(dst, p.Fix(i, q))
	}
	return dst
}

// PartitionSeq performs the (i1, i2, ..., im)-partition of Definition 3:
// successive partitions along the given positions, producing
// r(r-1)...(r-m+1) substars of order r-m. The positions must be distinct
// free positions >= 2.
func (p Pattern) PartitionSeq(positions []int) []Pattern {
	current := []Pattern{p}
	for _, pos := range positions {
		next := make([]Pattern, 0, len(current)*p.R())
		for _, q := range current {
			next = append(next, q.Partition(pos)...)
		}
		current = next
	}
	return current
}

// Vertices appends every vertex of the substar to dst in lexicographic
// order of the free-position assignment and returns dst. The number of
// appended vertices is R()!.
func (p Pattern) Vertices(dst []perm.Code) []perm.Code {
	var posBuf [perm.MaxN]int
	var symBuf [perm.MaxN]uint8
	positions := p.FreePositions(posBuf[:0])
	assignment := p.FreeSymbols(symBuf[:0])
	if len(positions) != len(assignment) {
		mustFailf("substar: free position/symbol count mismatch in %v", p)
	}
	return appendAssignments(dst, p.fixedCode(), positions, assignment)
}

// fixedCode returns the vertex code holding p's fixed symbols at their
// positions and zero nibbles at the free ones.
func (p Pattern) fixedCode() perm.Code {
	var base perm.Code
	for i := 1; i <= int(p.n); i++ {
		if s := p.syms[i-1]; s != Star {
			base = base.WithSymbol(i, s)
		}
	}
	return base
}

// appendAssignments appends base with assignment written at positions,
// once for assignment and once for each of its lexicographic
// successors — every ordering, when assignment starts sorted. It
// permutes assignment in place.
func appendAssignments(dst []perm.Code, base perm.Code, positions []int, assignment []uint8) []perm.Code {
	for {
		v := base
		for k, pos := range positions {
			v = v.WithSymbol(pos, assignment[k])
		}
		dst = append(dst, v)
		if !nextPerm(assignment) {
			return dst
		}
	}
}

// nextPerm advances the slice to its lexicographic successor.
func nextPerm(a []uint8) bool {
	n := len(a)
	i := n - 2
	for i >= 0 && a[i] >= a[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := n - 1
	for a[j] <= a[i] {
		j--
	}
	//starlint:ignore permalias advancing a to its successor in place is this helper's whole contract
	a[i], a[j] = a[j], a[i]
	for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
		a[l], a[r] = a[r], a[l]
	}
	return true
}

// PatternOf returns the order-(n-len(fixed)) pattern obtained by fixing,
// for each position in fixed, the symbol vertex v holds there. It is the
// substar containing v after an arbitrary partition sequence along those
// positions.
func PatternOf(n int, v perm.Code, fixed []int) Pattern {
	p := Whole(n)
	for _, pos := range fixed {
		p = p.Fix(pos, v.Symbol(pos))
	}
	return p
}

// Dif returns the paper's dif(p, q): the unique position j >= 2 at which
// two adjacent substars hold distinct fixed symbols. It returns 0 when
// the patterns are not adjacent.
//
// Adjacency (paper, Section 2): p and q are adjacent iff they agree at
// every position except a single j where both are fixed and different.
func (p Pattern) Dif(q Pattern) int {
	if p.n != q.n {
		return 0
	}
	dif := 0
	for i := 0; i < int(p.n); i++ {
		a, b := p.syms[i], q.syms[i]
		if a == b {
			continue
		}
		if a == Star || b == Star || dif != 0 {
			return 0
		}
		dif = i + 1
	}
	return dif
}

// Adjacent reports whether p and q are adjacent substars. An r-edge
// between two adjacent r-vertices comprises (r-1)! concrete edges of
// S_n.
func (p Pattern) Adjacent(q Pattern) bool { return p.Dif(q) != 0 }

// CrossEdges appends every concrete edge {u, w} of S_n with u in p and
// w in q, for adjacent patterns p and q. There are exactly (r-1)! such
// edges. Pairs are appended as successive (u, w) entries in us and ws.
func (p Pattern) CrossEdges(q Pattern, us, ws []perm.Code) ([]perm.Code, []perm.Code) {
	j := p.Dif(q)
	if j == 0 {
		return us, ws
	}
	y := q.syms[j-1] // symbol q fixes at the dif position
	// A cross edge swaps positions 1 and j: u must hold y at position 1
	// so that the swap moves y into position j, landing in q. (y is free
	// in p: q agrees with p off position j.) The other free positions
	// take the other free symbols in every order, so there are (r-1)!
	// such u; they are enumerated in the order Vertices lists them,
	// from stack buffers.
	var posBuf [perm.MaxN]int
	var symBuf [perm.MaxN]uint8
	positions := p.FreePositions(posBuf[:0])[1:]
	free := p.FreeSymbols(symBuf[:0])
	rest := free[:0]
	for _, s := range free {
		if s != y {
			rest = append(rest, s)
		}
	}
	first := len(us)
	us = appendAssignments(us, p.fixedCode().WithSymbol(1, y), positions, rest)
	for _, u := range us[first:] {
		ws = append(ws, u.SwapFirst(j))
	}
	return us, ws
}

// BlockedChild returns the one child of an i-partition of p that is NOT
// adjacent to the neighboring substar q (paper, Section 2): when
// p = <...*_i ... x_j ...> and q = <...*_i ... y_j ...> are adjacent at
// j = dif(p, q), the child of p with symbol y fixed at position i has no
// cross edge to q. Position i must be free in both p and q.
func (p Pattern) BlockedChild(q Pattern, i int) Pattern {
	j := p.Dif(q)
	if j == 0 {
		mustFailf("substar: BlockedChild of non-adjacent patterns %v, %v", p, q)
	}
	y := q.syms[j-1]
	return p.Fix(i, y)
}

// SortPatterns orders a slice of patterns deterministically (by their
// fixed-symbol vectors); used to make constructions reproducible.
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(a, b int) bool {
		pa, pb := ps[a], ps[b]
		for i := 0; i < int(pa.n); i++ {
			if pa.syms[i] != pb.syms[i] {
				return pa.syms[i] < pb.syms[i]
			}
		}
		return false
	})
}
