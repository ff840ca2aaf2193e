package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/superring"
)

// blockOrder is the number of vertices per S4 block.
const blockOrder = pathsearch.BlockOrder

// skeleton is the ring as a Plan holds it: the routing outcome of every
// S4 block in struct-of-arrays form. Block k (in ring order) is fully
// described by its entry vertex and the step word of its path
// (pathsearch.Steps), which the junction search records when it
// accepts the block: each step names the free position it swaps with
// position 1, and the word holds the vertex count. Every block of the
// R4 shares the same four free positions, so replaying a block is at
// most 23 nibble swaps from its entry, with no search, memo or
// isomorphism, and no per-block object is kept; the exit is the
// replay's last vertex.
//
// The entry and the step word (8 + 8 bytes) are all a skeleton keeps
// per block. Ring positions come from one Fenwick checkpoint per 64
// blocks (an eighth of a byte per block), and a vertex's block from
// the R4's refinement record (superring.Tree, about 0.6 bytes per
// block): 17 bytes per block in all. The few blocks holding a fault
// keep their avoid lists in a side table: the faulty vertices and the
// faulty intra-block edges, each sorted by block with the block of
// every entry alongside, so a block's lists are two runs found by
// binary search. The small-n direct embeddings (n <= 4) are one block
// over the free positions 1..4 with no refinement record: every repair
// of them rebuilds.
type skeleton struct {
	n    int      // the dimension of a routed ring
	free [4]uint8 // the free positions every block shares, position 1 first
	// tree locates the block of a vertex; nil for a direct embedding.
	tree *superring.Tree

	entry []perm.Code
	steps []pathsearch.Steps
	// fen is a Fenwick tree over the vertex counts of the 64-block
	// chunks: fen[j], for 1 <= j <= chunks, sums chunks j−(j&−j) to j−1.
	// offset and find read it, and a splice updates it.
	fen    []int
	length int // the ring length: every block's vertex count summed

	faultV      []perm.Code    // faulty vertices inside routed blocks, by block
	faultVBlock []int32        // the block of each faultV entry, nondecreasing
	faultE      [][2]perm.Code // faulty edges interior to a routed block, by block
	faultEBlock []int32        // the block of each faultE entry, nondecreasing
	// faultMask has bit k%64 set for every block k in the side table: a
	// one-word filter that clears most fault-free blocks with one bit
	// test, before holdsFault searches the side table.
	faultMask uint64
}

// chunkBits sets the Fenwick checkpoint spacing: one per 1<<chunkBits
// blocks.
const chunkBits = 6

// newSkeleton allocates the routing arrays for the order-4 blocks of a
// ring built by refinement (an R4 or an anchored chain), at their exact
// lengths, keeps the ring's refinement record as the block lookup and
// maps every fault to its block's side-table entry. Entry and steps are
// left for the junction search, and the checkpoints for layout. A ring
// with no record, which only superring.New builds, is refused.
func newSkeleton(r *superring.Ring, fs *faults.Set) (*skeleton, error) {
	pats := r.Vertices()
	m := len(pats)
	if m == 0 || r.Order() != 4 {
		return nil, fmt.Errorf("core: internal: routing needs order-4 blocks")
	}
	if r.Tree() == nil {
		return nil, fmt.Errorf("core: internal: the ring carries no refinement record to locate its blocks")
	}
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("core: S_%d has %d blocks, more than the side table's block numbers hold", r.N(), m)
	}
	sk := &skeleton{
		n:     r.N(),
		tree:  r.Tree(),
		entry: make([]perm.Code, m),
		steps: make([]pathsearch.Steps, m),
	}
	var free [4]int
	for j, pos := range pats[0].FreePositions(free[:0]) {
		sk.free[j] = uint8(pos)
	}
	sk.mapFaults(fs)
	return sk, nil
}

// blockOf returns the ring position of the block holding v, or -1 when
// the ring does not route that block: the walk of the refinement
// record, one digit per partition. v must be a vertex of S_n. OnRing,
// the repair path, the fault mapping and the chain's anchor check look
// up every vertex through it; hotalloc keeps it allocation-free.
//
//starlint:hotpath
func (sk *skeleton) blockOf(v perm.Code) int {
	return sk.tree.Locate(v)
}

// oneBlock holds a direct embedding (n <= 4), a cycle or a path of at
// most 24 vertices, as a skeleton of one block over the free positions
// 1..4: its first vertex and its step word, with no refinement record.
func oneBlock(walk []perm.Code) (*skeleton, error) {
	free := [4]uint8{1, 2, 3, 4}
	steps, ok := pathsearch.StepsOf(walk, free)
	if !ok {
		return nil, fmt.Errorf("core: internal: a direct embedding of %d vertices is no block walk", len(walk))
	}
	sk := &skeleton{free: free, entry: []perm.Code{walk[0]}, steps: []pathsearch.Steps{steps}}
	sk.layout()
	return sk, nil
}

// blocks returns the number of routed segments.
func (sk *skeleton) blocks() int { return len(sk.steps) }

// ringLen returns the total ring length implied by the block lengths.
func (sk *skeleton) ringLen() int { return sk.length }

// layout builds the offset checkpoints from the routed block lengths:
// each chunk's vertex count, then the Fenwick sums in one pass.
func (sk *skeleton) layout() {
	chunks := (len(sk.steps) + 1<<chunkBits - 1) >> chunkBits
	sk.fen = make([]int, chunks+1)
	sk.length = 0
	for k, s := range sk.steps {
		sk.fen[k>>chunkBits+1] += s.Len()
		sk.length += s.Len()
	}
	for j := 1; j <= chunks; j++ {
		if up := j + j&-j; up <= chunks {
			sk.fen[up] += sk.fen[j]
		}
	}
}

// offset returns block k's first ring position: the Fenwick prefix of
// the chunks before k's, plus the lengths of the at most 63 blocks
// before k in its chunk. RepairReport.SegmentStart reads it.
//
//starlint:hotpath
func (sk *skeleton) offset(k int) int {
	c := k >> chunkBits
	off := 0
	for j := c; j > 0; j &= j - 1 {
		off += sk.fen[j]
	}
	for _, s := range sk.steps[c<<chunkBits : k] {
		off += s.Len()
	}
	return off
}

// find returns the block holding ring position i (0 <= i < ringLen)
// and that block's first ring position: a descent of the Fenwick tree
// to i's chunk, then a scan of at most 64 block lengths. RingAt reads
// it on every miss of its segment cache.
//
//starlint:hotpath
func (sk *skeleton) find(i int) (k, start int) {
	c, rest := 0, i
	chunks := len(sk.fen) - 1
	for step := 1 << (bits.Len(uint(chunks)) - 1); step > 0; step >>= 1 {
		if j := c + step; j <= chunks && sk.fen[j] <= rest {
			c = j
			rest -= sk.fen[j]
		}
	}
	k = c << chunkBits
	for l := sk.steps[k].Len(); rest >= l; l = sk.steps[k].Len() {
		rest -= l
		k++
	}
	return k, i - rest
}

// resize records that block k's vertex count fell by delta: one
// Fenwick update over the checkpoints of k's chunk and the chunks whose
// sums cover it, O(log(#blocks/64)) words. A splice's whole change to
// the ring positions is this.
//
//starlint:hotpath
func (sk *skeleton) resize(k, delta int) {
	for j := k>>chunkBits + 1; j < len(sk.fen); j += j & -j {
		sk.fen[j] -= delta
	}
	sk.length -= delta
}

// mapFaults fills the side table: each faulty vertex goes to the block
// blockOf names, and each faulty edge with both endpoints in one block
// to that block, in fault-set order within a block. Faults in blocks
// the ring does not route are dropped, as they constrain no path.
func (sk *skeleton) mapFaults(fs *faults.Set) {
	for _, v := range fs.Vertices() {
		if k := sk.blockOf(v); k >= 0 {
			sk.addVertexFault(k, v)
		}
	}
	for _, e := range fs.Edges() {
		if k := sk.blockOf(e.U); k >= 0 && k == sk.blockOf(e.V) {
			_, at := run(sk.faultEBlock, k)
			sk.faultE = slices.Insert(sk.faultE, at, [2]perm.Code{e.U, e.V})
			sk.faultEBlock = slices.Insert(sk.faultEBlock, at, int32(k))
			sk.faultMask |= 1 << (k & 63)
		}
	}
}

// addVertexFault records faulty vertex v in block k's run of the side
// table, after the block's earlier faults.
func (sk *skeleton) addVertexFault(k int, v perm.Code) {
	_, at := run(sk.faultVBlock, k)
	sk.faultV = slices.Insert(sk.faultV, at, v)
	sk.faultVBlock = slices.Insert(sk.faultVBlock, at, int32(k))
	sk.faultMask |= 1 << (k & 63)
}

// run returns the bounds [lo, hi) of block k's entries in a side-table
// block column: two binary searches.
func run(blocks []int32, k int) (lo, hi int) {
	lo, _ = slices.BinarySearch(blocks, int32(k))
	hi, _ = slices.BinarySearch(blocks, int32(k)+1)
	return lo, hi
}

// faults returns block k's avoid lists from the side table — its
// faulty vertices and its faulty interior edges — both empty for a
// fault-free block.
func (sk *skeleton) faults(k int) ([]perm.Code, [][2]perm.Code) {
	vlo, vhi := run(sk.faultVBlock, k)
	elo, ehi := run(sk.faultEBlock, k)
	return sk.faultV[vlo:vhi:vhi], sk.faultE[elo:ehi:ehi]
}

// holdsFault reports whether block k holds a vertex or edge fault.
// The junction search asks it at every route test and of both blocks
// of every superedge, and a repair's splice test of the struck block
// and its two neighbors. A block whose faultMask bit is clear holds
// none; otherwise one binary search per side-table column finds block
// k's first entry if it has one.
func (sk *skeleton) holdsFault(k int) bool {
	if sk.faultMask&(1<<(k&63)) == 0 {
		return false
	}
	_, v := slices.BinarySearch(sk.faultVBlock, int32(k))
	_, e := slices.BinarySearch(sk.faultEBlock, int32(k))
	return v || e
}

// vertexFaultBlocks counts the blocks holding at least one faulty
// vertex.
func (sk *skeleton) vertexFaultBlocks() int {
	c := 0
	for i, k := range sk.faultVBlock {
		if i == 0 || k != sk.faultVBlock[i-1] {
			c++
		}
	}
	return c
}

// replay writes block k's path, in ring order, into dst and returns
// its vertex count: the block's step word replayed from its entry. It
// is how every view of the ring reads a block — the cursor, the
// random-access accessors, the splice's exit and RouteR4's flat slice.
//
//starlint:hotpath
func (sk *skeleton) replay(k int, dst *[blockOrder]perm.Code) int {
	return sk.steps[k].Replay(sk.entry[k], sk.free, dst)
}

// exit returns block k's last vertex, its exit junction endpoint.
func (sk *skeleton) exit(k int) perm.Code {
	var seg [blockOrder]perm.Code
	return seg[sk.replay(k, &seg)-1]
}

// drain replays every block into one flat slice: the ring (or, for a
// chain, the path) in order.
func (sk *skeleton) drain() []perm.Code {
	out := make([]perm.Code, 0, sk.ringLen())
	var seg [blockOrder]perm.Code
	for k := 0; k < sk.blocks(); k++ {
		out = append(out, seg[:sk.replay(k, &seg)]...)
	}
	return out
}

// bytesPerBlock returns the skeleton's retained bytes — every array at
// its capacity times its element size, the checkpoints, the refinement
// record and the side table — divided by its segment count and rounded
// up: the core.skeleton.bytes_per_block gauge.
func (sk *skeleton) bytesPerBlock() int64 {
	const code = int(unsafe.Sizeof(perm.Code(0)))
	const i32 = int(unsafe.Sizeof(int32(0)))
	const steps = int(unsafe.Sizeof(pathsearch.Steps(0)))
	b := (cap(sk.entry)+cap(sk.faultV)+2*cap(sk.faultE))*code + cap(sk.steps)*steps +
		cap(sk.fen)*int(unsafe.Sizeof(int(0))) +
		(cap(sk.faultVBlock)+cap(sk.faultEBlock))*i32
	if sk.tree != nil {
		b += sk.tree.Bytes()
	}
	blocks := sk.blocks()
	return int64((b + blocks - 1) / blocks)
}
