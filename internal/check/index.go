package check

import (
	"math/bits"

	"repro/internal/perm"
)

// vertexIndex numbers the vertices of S_n so that a star step usually
// costs one table read instead of a Lehmer rank. P is position 1 plus
// k−1 other positions, k = min(n, 4), and a vertex v gets
//
//	index(v) = A(v)·k! + L(v)
//
// where A ranks, Lehmer style, the arrangement of v's symbols at the
// positions outside P (n!/k! values) and L ranks the relative order of
// its k symbols at P (k! values). The symbols outside P fix the set of
// those at P, so every (A, L) pair is one vertex: the index is a
// bijection onto [0, n!) for every P, and a verdict read from it cannot
// depend on the choice of P.
//
// A step along a dimension in P swaps position 1 with another position
// of P: A stays, and L moves by a fixed k!×(k−1) table (step). Any other
// step carries a symbol between P and the rest, and both parts are
// recomputed (locate). When P is the free positions of the S4 blocks a
// ring is routed through, that happens once per block, and a block's 24
// vertices take 24 consecutive indices.
//
// The index shares nothing with the construction's ranks: it reads the
// code's nibbles itself and calls no perm.Code method.
type vertexIndex struct {
	n, k int
	kf   int // k!
	// pos holds P's positions as nibble shifts, position 1 (shift 0)
	// first and the others ascending; rest holds the n−k positions
	// outside P, ascending.
	pos  [4]uint8
	rest [perm.MaxN]uint8
	// slot[d] is the slot of P that a step along dimension d swaps with
	// position 1 (1..k−1), or 0 when d is outside P.
	slot [perm.MaxN + 1]uint8
	// next[l][j−1] is L after a step that swaps slots 0 and j.
	next [24][3]uint8
}

// newVertexIndex builds the index whose P is position 1 plus the
// lowest k−1 of dims, a mask with bit d set for dimension d (2 ≤ d ≤ n),
// padded with the lowest positions not yet in P when dims names fewer.
func newVertexIndex(n int, dims uint32) vertexIndex {
	k := min(n, 4)
	x := vertexIndex{n: n, k: k, kf: perm.Factorial(k), next: stepTables[k]}
	var inP uint32
	for _, want := range [2]uint32{dims, ^uint32(0)} {
		for d := 2; d <= n && bits.OnesCount32(inP) < k-1; d++ {
			inP |= want & (1 << d)
		}
	}
	j, r := 1, 0
	for d := 2; d <= n; d++ {
		if inP&(1<<d) != 0 {
			x.pos[j] = uint8(4 * (d - 1))
			x.slot[d] = uint8(j)
			j++
		} else {
			x.rest[r] = uint8(4 * (d - 1))
			r++
		}
	}
	return x
}

// locate returns A(v) and L(v) from one pass over v's nibbles: the
// positions outside P first, whose Lehmer digits count the smaller
// symbols not used yet, then P's, whose digits count the smaller P
// symbols in later slots. v must be a vertex of S_n.
//
//starlint:hotpath
func (x *vertexIndex) locate(v perm.Code) (a, l int) {
	w := uint64(v)
	var used uint32
	for i, sh := range x.rest[:x.n-x.k] {
		bit := uint32(1) << (w >> sh & 0xF)
		a = a*(x.n-i) + bits.OnesCount32(^used&(bit-1))
		used |= bit
	}
	for j, sh := range x.pos[:x.k] {
		bit := uint32(1) << (w >> sh & 0xF)
		l = l*(x.k-j) + bits.OnesCount32(^used&(bit-1))
		used |= bit
	}
	return a, l
}

// step returns L(v.SwapFirst(d)) given l = L(v), one table read, and
// true when d is in P; otherwise l and false, and the caller must
// locate the new vertex.
//
//starlint:hotpath
func (x *vertexIndex) step(l, d int) (int, bool) {
	j := x.slot[d]
	if j == 0 {
		return l, false
	}
	return int(x.next[l][j-1]), true
}

// index returns A(v)·k! + L(v), v's bit in the verifier's set.
func (x *vertexIndex) index(v perm.Code) int {
	a, l := x.locate(v)
	return a*x.kf + l
}

// stepTables[k] is vertexIndex.next for each k ≤ 4: row l unranks to
// the relative order of P's k symbols, column j−1 swaps its slots 0
// and j and ranks the result, in locate's digit order.
var stepTables = func() (t [5][24][3]uint8) {
	for k := 1; k <= 4; k++ {
		for l := 0; l < perm.Factorial(k); l++ {
			// Unrank l: digit i (radix k−i) picks the digit-th smallest
			// value not yet placed.
			var order [4]int
			var used [4]bool
			rem := l
			for i := 0; i < k; i++ {
				f := perm.Factorial(k - 1 - i)
				digit := rem / f
				rem %= f
				for v := 0; v < k; v++ {
					if used[v] {
						continue
					}
					if digit == 0 {
						order[i], used[v] = v, true
						break
					}
					digit--
				}
			}
			for j := 1; j < k; j++ {
				o := order
				o[0], o[j] = o[j], o[0]
				r := 0
				for i := 0; i < k; i++ {
					smaller := 0
					for _, later := range o[i+1 : k] {
						if later < o[i] {
							smaller++
						}
					}
					r = r*(k-i) + smaller
				}
				t[k][l][j-1] = uint8(r)
			}
		}
	}
	return t
}()
