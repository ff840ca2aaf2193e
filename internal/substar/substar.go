// Package substar implements the embedded-substar algebra of the paper
// (Definitions 1-5): patterns <s1 s2 ... sn>_r denoting embedded copies
// of S_r inside S_n, i-partitions and (i1,...,im)-partitions, pattern
// adjacency with its dif position, and the blocked-child rule that
// drives entry/exit selection in the super-ring machinery.
//
// A Pattern is packed into words the way perm.Code packs a vertex: its
// fixed symbols sit in one nibble word, with a mask of its free
// positions and a mask of its used symbols beside it. The refinements
// that build an R4 fix, compare and test patterns millions of times at
// n >= 11, and in this form each of those operations is a few mask and
// word operations instead of a walk over the n positions.
package substar

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/perm"
)

// Star is the "don't care" symbol of the paper, printed as '*'.
const Star uint8 = 0

// Pattern is an embedded substar <s1 s2 ... sn>_r of S_n: position i
// holds either a fixed symbol (1..n) or Star. Position 1 is always Star
// (the paper's s1 = *), and the number of Star positions is the order r
// of the embedded star graph.
//
// The fixed symbols are one word laid out as a perm.Code: nibble i-1
// holds s-1 for the symbol s fixed at position i and zero at a free
// position, so it is every vertex of the substar with its free nibbles
// cleared. Since a fixed symbol 1 also reads zero, a mask marks the free
// positions, and a second mask the symbols already fixed. Membership is
// then one masked compare, adjacency one XOR, and Fix three word
// updates. The free nibbles being zero makes the 16-byte value
// canonical: Pattern is comparable, equal patterns have equal words,
// and it can key maps directly.
type Pattern struct {
	fixed uint64 // nibble i-1: symbol-1 at fixed position i, 0 at a free one
	free  uint16 // bit i-1 set when position i is free
	used  uint16 // bit s-1 set when symbol s is fixed at some position
	n     uint8
}

// all returns the mask with bits 0..n-1 set: every position, or every
// symbol, of S_n.
func all(n uint8) uint16 { return uint16(uint32(1)<<n - 1) }

// nibbles widens a position mask to a nibble mask: bit i of m becomes
// nibble i, 0xF when set and 0 otherwise.
func nibbles(m uint16) uint64 {
	x := uint64(m)
	x = (x | x<<24) & 0x000000FF000000FF
	x = (x | x<<12) & 0x000F000F000F000F
	x = (x | x<<6) & 0x0303030303030303
	x = (x | x<<3) & 0x1111111111111111
	return x * 0xF
}

// Whole returns the pattern <* * ... *>_n representing all of S_n.
func Whole(n int) Pattern {
	if n < 1 || n > perm.MaxN {
		mustFailf("substar: dimension %d out of range [1,%d]", n, perm.MaxN)
	}
	return Pattern{free: all(uint8(n)), n: uint8(n)}
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
	p := Whole(n)
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
		if p.used>>(s-1)&1 != 0 {
			return Pattern{}, fmt.Errorf("substar: duplicate symbol %d", s)
		}
		p = p.fix(i, s)
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
func (p Pattern) R() int { return bits.OnesCount16(p.free) }

// Order returns the number of vertices of the embedded substar, R()!.
func (p Pattern) Order() int { return perm.Factorial(p.R()) }

// SymbolAt returns the fixed symbol at 1-based position i, or Star.
func (p Pattern) SymbolAt(i int) uint8 {
	if i > int(p.n) || p.free>>(i-1)&1 != 0 {
		return Star
	}
	return uint8(p.fixed>>(4*uint(i-1))&0xF) + 1
}

// Fixed returns p's fixed-symbol word: the vertex code holding p's
// fixed symbols at their positions and zero nibbles at the free ones.
// A vertex v lies in p exactly when v agrees with it at every fixed
// position.
func (p Pattern) Fixed() perm.Code { return perm.Code(p.fixed) }

// FreePositionMask returns p's free positions as a mask, bit i-1 set
// for free position i; bit 0 is always set.
func (p Pattern) FreePositionMask() uint32 { return uint32(p.free) }

// FreeSymbolMask returns the symbols not fixed anywhere in p as a mask,
// bit s-1 set for free symbol s.
func (p Pattern) FreeSymbolMask() uint32 { return uint32(all(p.n) &^ p.used) }

// String renders the pattern in the paper's notation, e.g. "<**21>_2".
func (p Pattern) String() string {
	const symbolRunes = "123456789abcdefg"
	var b strings.Builder
	b.WriteByte('<')
	for i := 1; i <= int(p.n); i++ {
		if s := p.SymbolAt(i); s == Star {
			b.WriteByte('*')
		} else {
			b.WriteByte(symbolRunes[s-1])
		}
	}
	fmt.Fprintf(&b, ">_%d", p.R())
	return b.String()
}

// FreePositions appends the 1-based free positions of p to dst in
// increasing order. Position 1 is always first.
func (p Pattern) FreePositions(dst []int) []int {
	for m := p.free; m != 0; m &= m - 1 {
		dst = append(dst, bits.TrailingZeros16(m)+1)
	}
	return dst
}

// FreeSymbols appends the symbols not fixed anywhere in p to dst in
// increasing order; these are the symbols that populate the free
// positions of the embedded substar's vertices.
func (p Pattern) FreeSymbols(dst []uint8) []uint8 {
	return appendSymbols(dst, p.FreeSymbolMask())
}

// appendSymbols appends the symbols of mask (bit s-1 for symbol s) to
// dst in increasing order.
func appendSymbols(dst []uint8, mask uint32) []uint8 {
	for ; mask != 0; mask &= mask - 1 {
		dst = append(dst, uint8(bits.TrailingZeros32(mask))+1)
	}
	return dst
}

// Contains reports whether vertex v of S_n belongs to the substar: one
// compare of v's fixed positions against the fixed-symbol word.
func (p Pattern) Contains(v perm.Code) bool {
	return uint64(v)&p.fixedNibbles() == p.fixed
}

// Count returns how many of the vertices vs belong to the substar:
// Contains over a list, with the fixed positions' mask widened once.
func (p Pattern) Count(vs []perm.Code) int {
	mask, k := p.fixedNibbles(), 0
	for _, v := range vs {
		if uint64(v)&mask == p.fixed {
			k++
		}
	}
	return k
}

// fixedNibbles returns the nibble mask of p's fixed positions.
func (p Pattern) fixedNibbles() uint64 { return nibbles(all(p.n) &^ p.free) }

// RankOf returns the rank of v's symbols at p's fixed positions, read
// in increasing position order as an arrangement of n-r of the n
// symbols: a Lehmer code cut short after n-r digits, whose radices run
// n, n-1, ..., r+1. Only the fixed positions are read, so every vertex
// of p ranks alike, and the patterns sharing p's free positions — the
// substars of one partition — rank by their Fixed words to 0, 1, ...,
// n!/r!-1, one rank each. v must hold distinct symbols at those
// positions.
func (p Pattern) RankOf(v perm.Code) int {
	rank := 0
	var seen uint32
	k := int(p.n)
	for m := all(p.n) &^ p.free; m != 0; m &= m - 1 {
		s := uint(v>>(4*uint(bits.TrailingZeros16(m))&63)) & 0xF
		bit := uint32(1) << s
		rank = rank*k + int(s) - bits.OnesCount32(seen&(bit-1))
		seen |= bit
		k--
	}
	return rank
}

// Fix returns a copy of p with 1-based position i (currently free,
// i >= 2) fixed to symbol q (currently unused). It panics when the
// operation would break the pattern invariants; this is the primitive
// behind Partition.
func (p Pattern) Fix(i int, q uint8) Pattern {
	if i < 2 || i > int(p.n) {
		mustFailf("substar: Fix position %d out of range [2,%d]", i, p.n)
	}
	if p.free>>(i-1)&1 == 0 {
		mustFailf("substar: Fix position %d of %v is not free", i, p)
	}
	if q < 1 || int(q) > int(p.n) {
		mustFailf("substar: Fix symbol %d out of range", q)
	}
	if p.used>>(q-1)&1 != 0 {
		mustFailf("substar: Fix symbol %d already used in %v", q, p)
	}
	return p.fix(i-1, q)
}

// fix writes symbol q at 0-based position i, which the caller has
// checked is free, as q is unused.
func (p Pattern) fix(i int, q uint8) Pattern {
	p.fixed |= uint64(q-1) << (4 * uint(i) & 63)
	p.free &^= 1 << uint(i)
	p.used |= 1 << (q - 1)
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
	for m := p.FreeSymbolMask(); m != 0; m &= m - 1 {
		dst = append(dst, p.Fix(i, uint8(bits.TrailingZeros32(m))+1))
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
	return appendAssignments(dst, p.Fixed(), positions, assignment)
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
// On the words: the free masks are equal, and the fixed words differ in
// exactly one nibble.
func (p Pattern) Dif(q Pattern) int {
	if p.n != q.n || p.free != q.free {
		return 0
	}
	d := p.fixed ^ q.fixed
	if d == 0 {
		return 0
	}
	shift := bits.TrailingZeros64(d) &^ 3
	if d>>uint(shift) > 0xF {
		return 0
	}
	return shift/4 + 1
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
	y := q.SymbolAt(j) // symbol q fixes at the dif position
	// A cross edge swaps positions 1 and j: u must hold y at position 1
	// so that the swap moves y into position j, landing in q. (y is free
	// in p: q agrees with p off position j.) The other free positions
	// take the other free symbols in every order, so there are (r-1)!
	// such u; they are enumerated in the order Vertices lists them,
	// from stack buffers.
	var posBuf [perm.MaxN]int
	var symBuf [perm.MaxN]uint8
	positions := p.FreePositions(posBuf[:0])[1:]
	rest := appendSymbols(symBuf[:0], p.FreeSymbolMask()&^(1<<(y-1)))
	first := len(us)
	us = appendAssignments(us, p.Fixed().WithSymbol(1, y), positions, rest)
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
	return p.Fix(i, q.SymbolAt(j))
}

// SortPatterns orders a slice of patterns deterministically (by their
// fixed-symbol vectors, position by position, Star before any symbol);
// used to make constructions reproducible.
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].less(ps[b]) })
}

// less compares two patterns of one dimension by their symbol vectors.
// The first position where they differ is the lowest nibble that is
// set in the XOR of their fixed words or that is free in one alone (a
// fixed symbol 1 reads zero, as a free position does).
func (p Pattern) less(q Pattern) bool {
	d := p.fixed ^ q.fixed | nibbles(p.free^q.free)
	if d == 0 {
		return false
	}
	shift := uint(bits.TrailingZeros64(d) &^ 3)
	if pf, qf := p.free>>(shift/4)&1, q.free>>(shift/4)&1; pf != qf {
		return pf == 1
	}
	return p.fixed>>shift&0xF < q.fixed>>shift&0xF
}
