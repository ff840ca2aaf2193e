package superring

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/perm"
)

// Tree records how a ring was refined: the order in which the initial
// partition and every refinement placed the children of each
// supervertex. By Definitions 4 and 5 a refinement replaces every
// supervertex, in place, by its children in the order of the clique
// path threaded through them, so the supervertex at ring position k is
// a mixed-radix number. Its digit at each level is the place, in its
// parent's ordering, of the symbol it fixes at that level's partition
// position. Locate reads that number off a vertex, with no flat ring
// and no index over it.
//
// A ring from Initial or InitialChain carries a Tree of one level and
// each Refine adds one; a ring from New carries none.
type Tree struct {
	levels []level
	// syms holds every level's orderings back to back, one nibble
	// (symbol − 1) per child.
	syms []byte
	// starts holds, back to back, the child starts of the levels where
	// Exclude dropped a child.
	starts []int32
}

// level is the record of one partition at position pos of supervertices
// of order width. Parent i's ordering lists the symbols its children
// fix at pos, in nibbles [at + i·width, at + i·width + count) of syms,
// where count is width unless Exclude dropped some of parent i's
// children. On a uniform level (start −1) parent i's children sit at
// ring positions i·width + digit. Where Exclude dropped a child,
// starts[start+i] is parent i's first child and it has
// starts[start+i+1] − starts[start+i] of them.
type level struct {
	pos, width uint8
	at, start  int32
}

// extend returns the record of a ring one partition further: t's levels
// followed by a uniform one at pos over parents supervertices of order
// width, whose orderings set fills in. t's arrays are shared, never
// written. A nil t stays nil: a ring without a record cannot gain one.
func (t *Tree) extend(pos, parents, width int) (*Tree, error) {
	if t == nil {
		return nil, nil
	}
	at := 2 * len(t.syms)
	if at+parents*width > math.MaxInt32 {
		return nil, fmt.Errorf("superring: a refinement record of more than %d orderings' symbols", math.MaxInt32)
	}
	syms := make([]byte, len(t.syms)+(parents*width+1)/2)
	copy(syms, t.syms)
	l := level{pos: uint8(pos), width: uint8(width), at: int32(at), start: -1}
	return &Tree{levels: append(t.levels[:len(t.levels):len(t.levels)], l), syms: syms, starts: t.starts}, nil
}

// set records s as the symbol that parent's child at place digit fixes
// at the last level's position.
func (t *Tree) set(parent, digit int, s uint8) {
	l := &t.levels[len(t.levels)-1]
	i := int(l.at) + parent*int(l.width) + digit
	t.syms[i>>1] |= (s - 1) << (4 * (i & 1))
}

// setStarts records, for a last level where Exclude dropped a child,
// each parent's first child: bounds[i] for parent i, and the child
// count after the last parent.
func (t *Tree) setStarts(bounds []int32) {
	t.levels[len(t.levels)-1].start = int32(len(t.starts))
	t.starts = append(t.starts[:len(t.starts):len(t.starts)], bounds...)
}

// Locate returns the ring position of the supervertex holding vertex v
// of S_n, or −1 when the ring holds no such supervertex (Exclude
// dropped it or one of its ancestors). It walks the levels once: at
// each the digit is the place of v's symbol at the level's position in
// the current parent's ordering. Every plan's block lookup is this
// walk, so hotalloc keeps it allocation-free.
//
//starlint:hotpath
func (t *Tree) Locate(v perm.Code) int {
	k := 0
	for i := range t.levels {
		l := &t.levels[i]
		first, count := k*int(l.width), int(l.width)
		if l.start >= 0 {
			st := t.starts[int(l.start)+k:]
			first, count = int(st[0]), int(st[1]-st[0])
		}
		base := int(l.at) + k*int(l.width)
		s := v.Symbol(int(l.pos)) - 1
		d := 0
		for d < count && t.syms[(base+d)>>1]>>(4*((base+d)&1))&0xF != s {
			d++
		}
		if d == count {
			return -1
		}
		k = first + d
	}
	return k
}

// Bytes returns the bytes the record's three arrays retain, at
// capacity.
func (t *Tree) Bytes() int {
	return cap(t.levels)*int(unsafe.Sizeof(level{})) + cap(t.syms) + cap(t.starts)*int(unsafe.Sizeof(int32(0)))
}
