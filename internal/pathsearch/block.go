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
// A Block is 56 bytes, in the 64-byte allocation class: the routed
// skeleton holds one per 24 ring vertices, and every replayed block
// goes through PathAppend.
type Block struct {
	base    perm.Code // the fixed symbols at their positions, zero nibbles at the free ones
	pat     substar.Pattern
	freePos [4]uint8 // 1-based free positions, increasing
	freeSym [4]uint8
	symIdx  [perm.MaxN + 1]uint8 // ambient symbol -> canonical symbol (1..4)
}

// NewBlock builds the isomorphism for an order-4 pattern.
func NewBlock(pat substar.Pattern) (*Block, error) {
	if pat.R() != 4 {
		return nil, fmt.Errorf("pathsearch: pattern %v has order %d, want 4", pat, pat.R())
	}
	b := &Block{pat: pat}
	j := 0
	for i := 1; i <= pat.N(); i++ {
		if s := pat.SymbolAt(i); s != substar.Star {
			b.base = b.base.WithSymbol(i, s)
		} else {
			b.freePos[j] = uint8(i)
			j++
		}
	}
	var syms [perm.MaxN]uint8
	copy(b.freeSym[:], pat.FreeSymbols(syms[:0]))
	for i, s := range b.freeSym {
		b.symIdx[s] = uint8(i + 1)
	}
	return b, nil
}

// Pattern returns the block's substar pattern.
func (b *Block) Pattern() substar.Pattern { return b.pat }

// Contains reports whether ambient vertex v lies in the block.
func (b *Block) Contains(v perm.Code) bool { return b.pat.Contains(v) }

// ToCanon maps an ambient vertex of the block to its canonical S4
// index. The boolean is false when v is not in the block.
func (b *Block) ToCanon(v perm.Code) (uint8, bool) {
	if !b.pat.Contains(v) {
		return 0, false
	}
	var c perm.Code
	for j, pos := range b.freePos {
		sym := b.symIdx[v.Symbol(int(pos))]
		c = c.WithSymbol(j+1, sym)
	}
	return Canon.Index(c), true
}

// FromCanon maps a canonical S4 index back to the ambient vertex: the
// precomputed fixed-symbol word plus four nibble writes. It is the
// one-vertex form of PathAppend's placement table, which tests hold it
// equal to; hotalloc keeps it allocation-free.
//
//starlint:hotpath
func (b *Block) FromCanon(idx uint8) perm.Code {
	canon := Canon.Code(idx)
	v := b.base
	for j, pos := range b.freePos {
		v = v.WithSymbol(int(pos), b.freeSym[canon.Symbol(j+1)-1])
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
// append): with a dst of sufficient capacity the only allocations left
// are the canonical search's own, which the memo cache absorbs after
// the first solve of each symmetry class. The streaming ring cursor
// leans on this to re-materialize one block segment at a time into a
// single reusable buffer.
//
// The canonical path comes back to S_n through a placement table built
// once per call: at[j][t] holds the block's t-th free symbol at its
// j-th free position, so each vertex is the fixed-symbol word ORed
// with one entry per canonical position.
func (b *Block) PathAppend(dst []perm.Code, spec PathSpec) ([]perm.Code, bool) {
	var edges [len(edgeSig{})]Edge
	q, ok := b.query(spec, edges[:0])
	if !ok {
		return dst, false
	}
	path, ok := Canon.FindPath(q)
	if !ok {
		return dst, false
	}
	var at [4][4]perm.Code
	for j, pos := range b.freePos {
		for t, s := range b.freeSym {
			at[j][t] = perm.Code(s-1) << (4 * uint(pos-1))
		}
	}
	for _, idx := range path {
		c := Canon.codes[idx]
		dst = append(dst, b.base|at[0][c&3]|at[1][c>>4&3]|at[2][c>>8&3]|at[3][c>>12&3])
	}
	return dst, true
}

// Admits reports whether spec has a path, without mapping it back to
// S_n: the same canonical query and memo lookup as PathAppend, so the
// two always agree. The junction search asks it of every candidate
// (entry, exit, target).
func (b *Block) Admits(spec PathSpec) bool {
	var edges [len(edgeSig{})]Edge
	q, ok := b.query(spec, edges[:0])
	if !ok {
		return false
	}
	_, ok = Canon.FindPath(q)
	return ok
}

// MaxPathLen returns the number of vertices on the longest From-To path
// under the spec's avoidance sets (Target is ignored).
func (b *Block) MaxPathLen(spec PathSpec) int {
	q, ok := b.query(spec, nil)
	if !ok {
		return 0
	}
	_, n, ok := Canon.MaxPath(q)
	if !ok {
		return 0
	}
	return n
}

// query canonicalizes spec: its endpoints, its target, the mask of its
// faulty vertices inside the block and its faulty intra-block edges,
// appended to edges. Faults outside the block do not constrain it. ok
// is false when an endpoint lies outside the block. PathAppend and
// Admits pass edges as a stack array the size of the memo's edge
// signature, so a cacheable query allocates nothing.
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
