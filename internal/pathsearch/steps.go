package pathsearch

import "repro/internal/perm"

// Steps is a block path as a value: the low five bits hold its vertex
// count, and step i (from vertex i to vertex i+1) takes the two bits
// at 5+2i, naming which of the block's free positions 2, 3 or 4 (value
// 0, 1 or 2) the step swaps with position 1. A 24-vertex path fills 51
// bits. Every embedded S4 is the canonical one relabeled, and the
// relabeling maps canonical position j to the block's j-th free
// position, so one word serves every block that routes the same
// canonical path: the step-word tables hold one per canonical query,
// and the ring stores one per block in place of its exit and length.
type Steps uint64

// stepsLenBits is the width of the vertex count.
const stepsLenBits = 5

// Len returns the number of vertices on the path.
func (s Steps) Len() int { return int(s & (1<<stepsLenBits - 1)) }

// Replay writes the path that starts at from, in a block whose free
// positions are free (1-based, increasing, position 1 first), into dst
// and returns its vertex count: each step swaps two nibbles of the
// previous vertex, with no search or isomorphism. Every view of
// a routed ring reads its blocks through it, so hotalloc keeps it
// allocation-free.
//
//starlint:hotpath
func (s Steps) Replay(from perm.Code, free [4]uint8, dst *[BlockOrder]perm.Code) int {
	var shift [4]uint
	for j := 1; j < 4; j++ {
		shift[j-1] = 4 * uint(free[j]-1) & 63
	}
	n := min(s.Len(), BlockOrder)
	v := from
	dst[0] = v
	w := uint64(s) >> stepsLenBits
	for i := 1; i < n; i++ {
		sh := shift[w&3]
		w >>= 2
		x := (v ^ v>>sh) & 0xF
		v ^= x | x<<sh
		dst[i] = v
	}
	return n
}

// StepsOf returns the step word of walk, a path inside the block whose
// free positions are free. ok is false when the walk is empty, longer
// than a block, or takes a step that is not an edge swapping position
// 1 with one of the block's other free positions.
func StepsOf(walk []perm.Code, free [4]uint8) (Steps, bool) {
	if len(walk) == 0 || len(walk) > BlockOrder {
		return 0, false
	}
	s := Steps(len(walk))
	for i := 1; i < len(walk); i++ {
		j := 1
		for j < 4 && walk[i-1].SwapFirst(int(free[j])) != walk[i] {
			j++
		}
		if j == 4 || walk[i-1] == walk[i] {
			return 0, false
		}
		s |= Steps(j-1) << (stepsLenBits + 2*uint(i-1))
	}
	return s, true
}
