package pathsearch

import "repro/internal/perm"

//go:generate go run ./gensteps -o tables.go

// Hamiltonian returns the step word of the 24-vertex path from one
// vertex of a fault-free block to another, or 0 when none exists (the
// ends share a partite set, or are one vertex): the word Block.Route
// returns for the same ends with no fault and a target of BlockOrder.
// The free positions are the block's (1-based, increasing, position 1
// first), and both ends must lie in the one block over them. A healthy
// S4 is Hamiltonian-laceable, so such a path depends only on the ends'
// canonical indices: the word is one read of the committed table that
// the exhaustive search generated, with no isomorphism or search. The
// junction search asks it of every fault-free block, so hotalloc keeps
// it allocation-free.
//
//starlint:hotpath
func Hamiltonian(from, to perm.Code, free [4]uint8) Steps {
	return hamiltonian[canonIndex(from, free)][canonIndex(to, free)]
}

// canonIndex returns the canonical S4 index of v in its block over the
// free positions free: the Lehmer rank of the relative order of v's
// symbols at position 1 and the block's three other free positions,
// since the isomorphism maps free positions and free symbols in
// increasing order and the canonical S4 is indexed by lexicographic
// rank. Each digit counts the later symbols smaller than an earlier
// one. Block.ToCanon returns it after the membership test, and
// Hamiltonian reads it with no block built.
func canonIndex(v perm.Code, free [4]uint8) uint8 {
	a := uint64(v) & 0xF
	b := uint64(v) >> (4 * uint(free[1]-1) & 63) & 0xF
	c := uint64(v) >> (4 * uint(free[2]-1) & 63) & 0xF
	d := uint64(v) >> (4 * uint(free[3]-1) & 63) & 0xF
	return uint8(6*(less(b, a)+less(c, a)+less(d, a)) + 2*(less(c, b)+less(d, b)) + less(d, c))
}

// less returns 1 when nibble x is below nibble y and 0 otherwise: the
// sign bit of their difference, with no branch.
func less(x, y uint64) uint64 { return (x - y) >> 63 }
