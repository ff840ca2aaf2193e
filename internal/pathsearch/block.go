package pathsearch

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/substar"
)

// Block is one embedded S4 of S_n, equipped with the isomorphism onto
// the canonical S4: free positions map to positions 1..4 in increasing
// order (position 1 is always free and maps to position 1) and free
// symbols map to symbols 1..4 in increasing order. The isomorphism
// preserves adjacency because every intra-block edge swaps position 1
// with a free position.
//
// Every block of one partition has the same free positions, so the
// isomorphism is a function of those positions and any one vertex of
// the block (BlockAt). It is a three-word value: the routed skeleton
// stores none, and computes one on the stack at each route test that
// Hamiltonian does not answer. A fault-free block's 24-vertex route
// needs none, and a routed path needs none to be read back: its step
// word replays from the entry over the free positions alone
// (Steps.Replay).
type Block struct {
	base    perm.Code // the fixed symbols at their positions, zero nibbles at the free ones
	fixed   perm.Code // 0xF at every nibble but the free positions'
	freePos [4]uint8  // 1-based free positions, increasing
	freeSym [4]uint8  // free symbols, increasing
}

// BlockAt returns the isomorphism of the block that holds v and has
// the given free positions (1-based, increasing, position 1 first).
// The base word is v with its four free nibbles cleared and the free
// symbols are those nibbles, sorted, so no pattern is consulted. The
// junction search calls it once per route test that Hamiltonian does
// not answer — a faulty block, or a target short of the whole block —
// and a repair's splice once; hotalloc keeps it allocation-free.
//
//starlint:hotpath
func BlockAt(v perm.Code, free [4]uint8) Block {
	var mask perm.Code
	var s [4]uint8
	for j, pos := range free {
		shift := 4 * uint(pos-1) & 63
		mask |= 0xF << shift
		s[j] = uint8(v>>shift&0xF) + 1
	}
	// A five-comparator network sorts the four free symbols.
	if s[0] > s[1] {
		s[0], s[1] = s[1], s[0]
	}
	if s[2] > s[3] {
		s[2], s[3] = s[3], s[2]
	}
	if s[0] > s[2] {
		s[0], s[2] = s[2], s[0]
	}
	if s[1] > s[3] {
		s[1], s[3] = s[3], s[1]
	}
	if s[1] > s[2] {
		s[1], s[2] = s[2], s[1]
	}
	return Block{base: v &^ mask, fixed: ^mask, freePos: free, freeSym: s}
}

// NewBlock builds the isomorphism for an order-4 pattern: BlockAt of
// the pattern's vertex that holds its free symbols in increasing
// order.
func NewBlock(pat substar.Pattern) (*Block, error) {
	if pat.R() != 4 {
		return nil, fmt.Errorf("pathsearch: pattern %v has order %d, want 4", pat, pat.R())
	}
	var syms [4]uint8
	var positions [4]int
	rest := pat.FreeSymbols(syms[:0])
	var free [4]uint8
	v := pat.Fixed()
	for j, pos := range pat.FreePositions(positions[:0]) {
		free[j] = uint8(pos)
		v = v.WithSymbol(pos, rest[j])
	}
	b := BlockAt(v, free)
	return &b, nil
}

// Contains reports whether ambient vertex v lies in the block: one
// masked compare of v's fixed positions against the block's symbols.
func (b *Block) Contains(v perm.Code) bool { return v&b.fixed == b.base }

// ToCanon maps an ambient vertex of the block to its canonical S4
// index: the relative rank of its free symbols (canonIndex), which
// needs nothing of the block but its free positions. The boolean is
// false when v is not in the block.
func (b *Block) ToCanon(v perm.Code) (uint8, bool) {
	if v&b.fixed != b.base {
		return 0, false
	}
	return canonIndex(v, b.freePos), true
}

// FromCanon maps a canonical S4 index back to the ambient vertex: the
// precomputed fixed-symbol word plus four nibble writes. It is the
// oracle the tests hold a step replay to, vertex by vertex; hotalloc
// keeps it allocation-free.
//
//starlint:hotpath
func (b *Block) FromCanon(idx uint8) perm.Code {
	canon := Canon.Code(idx)
	v := b.base
	for j, pos := range b.freePos {
		v |= perm.Code(b.freeSym[canon>>(4*uint(j))&3]-1) << (4 * uint(pos-1) & 63)
	}
	return v
}

// CanonEdge maps an ambient intra-block edge to a canonical Edge. The
// boolean is false when either endpoint lies outside the block or the
// endpoints are not adjacent within it.
func (b *Block) CanonEdge(u, v perm.Code) (Edge, bool) {
	a, ok := b.ToCanon(u)
	if !ok {
		return Edge{}, false
	}
	c, ok := b.ToCanon(v)
	if !ok {
		return Edge{}, false
	}
	if Canon.Adjacency(a)&(1<<uint(c)) == 0 {
		return Edge{}, false
	}
	return normEdge(Edge{A: a, B: c}), true
}

// PathSpec is a block routing request in ambient coordinates.
type PathSpec struct {
	From, To perm.Code
	AvoidV   []perm.Code    // faulty vertices inside the block
	AvoidE   [][2]perm.Code // faulty intra-block edges
	Target   int            // exact number of vertices to visit
}

// Path solves the routing request, returning the path in ambient
// coordinates (a fresh slice), or ok=false when no such path exists.
func (b *Block) Path(spec PathSpec) ([]perm.Code, bool) {
	return b.PathAppend(make([]perm.Code, 0, spec.Target), spec)
}

// PathAppend is Path writing into dst (appended and returned, like
// append): Route, then the step word replayed from spec.From. With a
// dst of sufficient capacity a query the step-word tables answer
// allocates nothing; any other query allocates what its search does.
func (b *Block) PathAppend(dst []perm.Code, spec PathSpec) ([]perm.Code, bool) {
	steps, ok := b.Route(spec)
	if !ok {
		return dst, false
	}
	var seg [BlockOrder]perm.Code
	return append(dst, seg[:steps.Replay(spec.From, b.freePos, &seg)]...), true
}

// Route solves spec and returns its path as a step word from
// spec.From over the block's free positions, or ok=false when no such
// path exists. The junction search asks it of every candidate (entry,
// exit, target) that Hamiltonian does not answer, and keeps the word of
// the one it accepts, so a routed block is read back by replaying the
// word, never by asking again. With no faulty edge inside the block,
// the two queries of the paper's algorithm are table reads that
// allocate nothing: a fault-free target of the whole block returns the
// word Hamiltonian reads, and Lemma 4's 22-vertex target around one
// faulty vertex the detour table's word. Any other query searches on
// this call.
func (b *Block) Route(spec PathSpec) (Steps, bool) {
	var edges [blockEdges]Edge
	q, ok := b.query(spec, edges[:0])
	if !ok {
		return 0, false
	}
	return Canon.route(q)
}

// MaxPath returns the longest From-To path under the spec's avoidance
// sets (Target is ignored) in ambient coordinates (a fresh slice), or
// ok=false when no healthy path joins them. It searches once, from the
// longest parity-feasible target down.
func (b *Block) MaxPath(spec PathSpec) ([]perm.Code, bool) {
	q, ok := b.query(spec, nil)
	if !ok {
		return nil, false
	}
	canon, _, ok := Canon.MaxPath(q)
	if !ok {
		return nil, false
	}
	path := make([]perm.Code, len(canon))
	for i, idx := range canon {
		path[i] = b.FromCanon(idx)
	}
	return path, true
}

// blockEdges is the number of edges of an S4 block, 24·3/2: an array
// this long holds any set of a block's faulty edges.
const blockEdges = BlockOrder * 3 / 2

// query canonicalizes spec: its endpoints, its target, the mask of its
// faulty vertices inside the block and its faulty intra-block edges,
// appended to edges. Faults outside the block do not constrain it. ok
// is false when an endpoint lies outside the block. Route passes edges
// as a stack array that holds every edge of a block, so its query
// allocates nothing of its own.
func (b *Block) query(spec PathSpec, edges []Edge) (Query, bool) {
	from, ok := b.ToCanon(spec.From)
	if !ok {
		return Query{}, false
	}
	to, ok := b.ToCanon(spec.To)
	if !ok {
		return Query{}, false
	}
	q := Query{From: from, To: to, Target: spec.Target}
	for _, v := range spec.AvoidV {
		if idx, ok := b.ToCanon(v); ok {
			q.ForbidV |= 1 << uint(idx)
		}
	}
	for _, e := range spec.AvoidE {
		if ce, ok := b.CanonEdge(e[0], e[1]); ok {
			edges = append(edges, ce)
		}
	}
	q.ForbidE = edges
	return q, true
}
