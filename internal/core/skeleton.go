package core

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/substar"
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
// The retained arrays cost 28 bytes per block: the entry and the step
// word (8 + 8), the segment offset (8) and one int32 of the
// pattern-rank index. The few blocks holding a fault keep their avoid
// lists in a side table: the faulty vertices and the faulty intra-block
// edges, each sorted by block with the block of every entry alongside,
// so a block's lists are two runs found by binary search. The small-n
// direct embeddings (n <= 4) are one block over the free positions
// 1..4 with no index: every repair of them rebuilds.
type skeleton struct {
	free  [4]uint8        // the free positions every block shares, position 1 first
	shape substar.Pattern // the first block; its RankOf ranks any block at the fixed positions all share

	entry   []perm.Code
	steps   []pathsearch.Steps
	offsets []int // block k occupies ring positions [offsets[k], offsets[k+1])
	// index maps the rank of a block's fixed symbols (shape.RankOf), an
	// arrangement of n-4 of the n symbols, to the block's ring position;
	// -1 marks a block the ring does not route. nil for a direct
	// embedding.
	index []int32

	faultV      []perm.Code    // faulty vertices inside routed blocks, by block
	faultVBlock []int32        // the block of each faultV entry, nondecreasing
	faultE      [][2]perm.Code // faulty edges interior to a routed block, by block
	faultEBlock []int32        // the block of each faultE entry, nondecreasing
	// faultMask has bit k%64 set for every block k in the side table: a
	// one-word filter that clears most fault-free blocks with one bit
	// test, before holdsFault searches the side table.
	faultMask uint64
}

// newSkeleton allocates the routing arrays for a sequence of order-4
// blocks of S_n (an R4 or an anchored chain), at their exact lengths,
// builds the pattern-rank index over them and maps every fault to its
// block's side-table entry. Entry and steps are left for the junction
// search, and offsets for layout.
func newSkeleton(pats []substar.Pattern, fs *faults.Set) (*skeleton, error) {
	m := len(pats)
	if m == 0 || pats[0].R() != 4 {
		return nil, fmt.Errorf("core: internal: routing needs order-4 blocks")
	}
	n := pats[0].N()
	total := perm.Factorial(n) / blockOrder
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("core: S_%d has %d blocks, more than the skeleton index holds", n, total)
	}
	sk := &skeleton{
		shape: pats[0],
		entry: make([]perm.Code, m),
		steps: make([]pathsearch.Steps, m),
		index: make([]int32, total),
	}
	var free [4]int
	for j, pos := range pats[0].FreePositions(free[:0]) {
		sk.free[j] = uint8(pos)
	}
	if m < total {
		for r := range sk.index {
			sk.index[r] = -1
		}
	}
	for k, pat := range pats {
		sk.index[sk.shape.RankOf(pat.Fixed())] = int32(k)
	}
	sk.mapFaults(fs)
	return sk, nil
}

// blockOf returns the ring position of the block holding v, or -1 when
// the ring does not route that block: one rank over the fixed
// positions and one index read. v must be a vertex of S_n, which keeps
// the rank inside the index. OnRing and the repair path look up every
// probed vertex through it; hotalloc keeps it allocation-free.
//
//starlint:hotpath
func (sk *skeleton) blockOf(v perm.Code) int {
	return int(sk.index[sk.shape.RankOf(v)])
}

// oneBlock holds a direct embedding (n <= 4), a cycle or a path of at
// most 24 vertices, as a skeleton of one block over the free positions
// 1..4: its first vertex and its step word, with no index.
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
func (sk *skeleton) ringLen() int { return sk.offsets[len(sk.offsets)-1] }

// layout computes the segment offsets from the routed block lengths.
func (sk *skeleton) layout() {
	sk.offsets = make([]int, len(sk.steps)+1)
	for k, s := range sk.steps {
		sk.offsets[k+1] = sk.offsets[k] + s.Len()
	}
}

// mapFaults fills the side table: each faulty vertex goes to the block
// its rank names, and each faulty edge with both endpoints in one block
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
// its capacity times its element size, plus the side table — divided by
// its segment count and rounded up: the core.skeleton.bytes_per_block
// gauge.
func (sk *skeleton) bytesPerBlock() int64 {
	const code = int(unsafe.Sizeof(perm.Code(0)))
	const i32 = int(unsafe.Sizeof(int32(0)))
	const steps = int(unsafe.Sizeof(pathsearch.Steps(0)))
	b := (cap(sk.entry)+cap(sk.faultV)+2*cap(sk.faultE))*code + cap(sk.steps)*steps +
		cap(sk.offsets)*int(unsafe.Sizeof(int(0))) +
		(cap(sk.index)+cap(sk.faultVBlock)+cap(sk.faultEBlock))*i32
	blocks := sk.blocks()
	return int64((b + blocks - 1) / blocks)
}
