// Package pathsearch performs exact path searches inside the 24-vertex
// S4 blocks that the embedding algorithm routes through. It is the
// operational form of the paper's Lemmas 4, 5 and 6: instead of the six
// hand-listed fault-avoiding paths of Lemma 4 and the 6-cycle case
// analysis of Lemmas 5-6, every block query is answered by an exhaustive
// depth-first search over the canonical S4 (with parity and
// reachability pruning), and results are memoized. Every embedded S4 of
// S_n is isomorphic to the canonical S4 by relabeling free positions and
// free symbols, so one small cache serves every block of every
// embedding.
package pathsearch

import (
	"math/bits"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/perm"
	"repro/internal/star"
)

// BlockOrder is the number of vertices of an S4 block, 4!.
const BlockOrder = 24

// S4 is the canonical 4-dimensional star graph with vertices indexed by
// lexicographic rank (0..23). The package-level singleton Canon is
// shared by all searches; it is immutable after construction apart from
// its internal result cache, which is synchronized.
type S4 struct {
	adj    [BlockOrder]uint32 // adjacency bitmasks
	parity [BlockOrder]uint8  // 0 = even permutation, 1 = odd
	codes  [BlockOrder]perm.Code
	// packedIndex maps a canonical code packed two bits per position
	// (symbol-1 of position j+1 at bits 2j, 2j+1) to its rank index;
	// Block.ToCanon reads it instead of ranking the code.
	packedIndex [256]uint8

	mu    sync.RWMutex
	cache map[searchKey]cacheEntry

	// Cache effectiveness counters, always on (an atomic add is noise
	// next to the map access they sit beside). Read via CacheStats;
	// internal/core folds per-run deltas into its obs registry.
	hits, misses, bypasses obs.Counter
}

type searchKey struct {
	from, to uint8
	forbV    uint32
	edgeSig  edgeSig
	target   uint8
}

// edgeSig identifies a set of up to eight forbidden edges; each edge is
// packed as from*24+to with from < to, in ascending order. Blocks with
// more forbidden edges bypass the cache (they cannot occur within the
// paper's fault budget for practical n).
type edgeSig [8]uint16

// cacheEntry is one memoized answer: the path and its step word,
// computed once when the entry is made; both are zero when no path
// with the keyed target exists.
type cacheEntry struct {
	path  []uint8
	steps Steps
}

// canonFree is the canonical S4's free positions: all four.
var canonFree = [4]uint8{1, 2, 3, 4}

// Canon is the shared canonical S4.
var Canon = newS4()

func newS4() *S4 {
	s := &S4{cache: make(map[searchKey]cacheEntry)}
	g := star.New(4)
	i := 0
	g.Vertices(func(v perm.Code) bool {
		s.codes[i] = v
		s.parity[i] = uint8(v.Parity(4))
		s.packedIndex[v&3|v>>2&0xC|v>>4&0x30|v>>6&0xC0] = uint8(i)
		i++
		return true
	})
	for a := 0; a < BlockOrder; a++ {
		for dim := 2; dim <= 4; dim++ {
			b := s.codes[a].SwapFirst(dim).Rank(4)
			s.adj[a] |= 1 << uint(b)
		}
	}
	return s
}

// CacheStats returns the cumulative result-cache counters: hits
// (answered from the memo), misses (searched then memoized) and
// bypasses (uncacheable queries: NoCache set, or more than eight
// forbidden edges).
func (s *S4) CacheStats() (hits, misses, bypasses int64) {
	return s.hits.Value(), s.misses.Value(), s.bypasses.Value()
}

// Code returns the canonical vertex code with the given rank index.
func (s *S4) Code(idx uint8) perm.Code { return s.codes[idx] }

// Index returns the rank index of a canonical S4 code.
func (s *S4) Index(c perm.Code) uint8 { return uint8(c.Rank(4)) }

// Parity returns the bipartition side of the indexed vertex.
func (s *S4) Parity(idx uint8) uint8 { return s.parity[idx] }

// Adjacency returns the neighbor bitmask of the indexed vertex.
func (s *S4) Adjacency(idx uint8) uint32 { return s.adj[idx] }

// Edge is a forbidden edge given by two canonical vertex indices.
type Edge struct{ A, B uint8 }

func normEdge(e Edge) Edge {
	if e.A > e.B {
		e.A, e.B = e.B, e.A
	}
	return e
}

// signature packs the forbidden edges into the fixed-size cache key,
// sorting in place inside the array: it runs on every FindPath call,
// so it builds the key without touching the heap.
//
//starlint:hotpath
func signature(edges []Edge) (edgeSig, bool) {
	var sig edgeSig
	if len(edges) > len(sig) {
		return sig, false
	}
	for i, e := range edges {
		e = normEdge(e)
		sig[i] = uint16(e.A)*BlockOrder + uint16(e.B) + 1 // +1 keeps 0 as "no edge"
	}
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && sig[j-1] > sig[j]; j-- {
			sig[j-1], sig[j] = sig[j], sig[j-1]
		}
	}
	return sig, true
}

// Query describes one block search. Target is the exact number of
// vertices the path must visit (endpoints included).
type Query struct {
	From, To  uint8
	ForbidV   uint32 // bitmask of forbidden vertices
	ForbidE   []Edge // forbidden edges, if any
	Target    int
	budgetCap int64 // 0 means default

	// Ablation switches (benchmarks only): disable the result cache or
	// the Warnsdorff branch ordering to measure their contribution.
	NoCache     bool
	NoHeuristic bool
}

// FindPath searches for a path visiting exactly q.Target vertices from
// q.From to q.To, avoiding forbidden vertices and edges. The returned
// slice lists canonical vertex indices, starting at From and ending at
// To; it is owned by the cache and must not be modified. The second
// result reports success.
func (s *S4) FindPath(q Query) ([]uint8, bool) {
	e := s.find(q)
	return e.path, e.steps != 0
}

// route is FindPath's step-word form: the word the memo entry holds,
// or for a query the memo does not cache, the word of the path
// searched on this call.
func (s *S4) route(q Query) (Steps, bool) {
	e := s.find(q)
	return e.steps, e.steps != 0
}

// find answers q from the memo, or searches and memoizes the answer.
func (s *S4) find(q Query) cacheEntry {
	if q.Target < 1 || q.Target > BlockOrder {
		return cacheEntry{}
	}
	if q.ForbidV&(1<<uint(q.From)) != 0 || q.ForbidV&(1<<uint(q.To)) != 0 {
		return cacheEntry{}
	}
	if q.From == q.To {
		if q.Target == 1 {
			return cacheEntry{path: []uint8{q.From}, steps: 1}
		}
		return cacheEntry{}
	}

	sig, cacheable := signature(q.ForbidE)
	if q.NoCache {
		cacheable = false
	}
	key := searchKey{from: q.From, to: q.To, forbV: q.ForbidV, edgeSig: sig, target: uint8(q.Target)}
	if cacheable {
		if e, ok := s.lookup(key); ok {
			return e
		}
	} else {
		s.bypasses.Inc()
	}

	adjEff := s.adj
	for _, e := range q.ForbidE {
		e = normEdge(e)
		adjEff[e.A] &^= 1 << uint(e.B)
		adjEff[e.B] &^= 1 << uint(e.A)
	}

	d := dfs{
		s:           s,
		adj:         &adjEff,
		to:          q.To,
		target:      q.Target,
		budget:      1 << 22,
		noHeuristic: q.NoHeuristic,
	}
	if q.budgetCap > 0 {
		d.budget = q.budgetCap
	}
	d.path = append(d.path, q.From)
	// Cold searches (cache misses and bypasses) are where FindPath's CPU
	// actually goes, so they run under their own pprof label; the hit
	// path above stays label-free — a map lookup needs no attribution.
	var found bool
	prof.Do("s4-search", func() {
		found = d.run(q.From, q.ForbidV|1<<uint(q.From))
	})

	var e cacheEntry
	if found {
		e.path = make([]uint8, len(d.path))
		copy(e.path, d.path)
		e.steps = s.steps(e.path)
	}
	if cacheable {
		s.mu.Lock()
		s.cache[key] = e
		s.mu.Unlock()
	}
	return e
}

// steps returns the step word of a canonical path, read off the
// canonical codes of its vertices. A searched path is a walk of the
// canonical S4 of at most 24 vertices, which StepsOf never refuses.
func (s *S4) steps(path []uint8) Steps {
	var walk [BlockOrder]perm.Code
	for i, idx := range path {
		walk[i] = s.codes[idx]
	}
	steps, _ := StepsOf(walk[:len(path)], canonFree)
	return steps
}

// lookup probes the result cache under the read lock and maintains the
// hit/miss counters. This is the steady state of long repair campaigns
// — Table-driven queries repeat endlessly — so the paper's amortized
// cost claim rests on the hit path staying an RLock, a map probe and
// an atomic add, with no allocation; hotalloc enforces that.
//
//starlint:hotpath
func (s *S4) lookup(key searchKey) (cacheEntry, bool) {
	s.mu.RLock()
	e, ok := s.cache[key]
	s.mu.RUnlock()
	if ok {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
	return e, ok
}

// dfs carries the state of one target-path search.
type dfs struct {
	s           *S4
	adj         *[BlockOrder]uint32
	to          uint8
	target      int
	path        []uint8
	budget      int64
	noHeuristic bool
}

// run extends the path from cur (already in path and in visited) and
// reports whether a full target path was completed.
func (d *dfs) run(cur uint8, visited uint32) bool {
	if len(d.path) == d.target {
		return cur == d.to
	}
	d.budget--
	if d.budget < 0 {
		return false
	}
	if !d.feasible(cur, visited) {
		return false
	}
	// Order candidate moves by ascending remaining degree (Warnsdorff's
	// heuristic): forced moves first keeps the branching factor near one
	// on Hamiltonian instances.
	cands := d.adj[cur] &^ visited
	var order [4]uint8
	var deg [4]int
	m := 0
	for c := cands; c != 0; c &= c - 1 {
		w := uint8(bits.TrailingZeros32(c))
		if w == d.to && len(d.path)+1 != d.target {
			continue // touching the goal early would strand it
		}
		order[m] = w
		deg[m] = bits.OnesCount32(d.adj[w] &^ visited)
		m++
	}
	if !d.noHeuristic {
		for i := 1; i < m; i++ {
			for j := i; j > 0 && deg[j-1] > deg[j]; j-- {
				deg[j-1], deg[j] = deg[j], deg[j-1]
				order[j-1], order[j] = order[j], order[j-1]
			}
		}
	}
	for i := 0; i < m; i++ {
		w := order[i]
		d.path = append(d.path, w)
		if d.run(w, visited|1<<uint(w)) {
			return true
		}
		d.path = d.path[:len(d.path)-1]
	}
	return false
}

// feasible applies the parity and reachability prunes.
func (d *dfs) feasible(cur uint8, visited uint32) bool {
	remaining := d.target - len(d.path) // vertices still to append
	// Parity prune: appended vertices alternate parity starting from the
	// opposite of cur; the final vertex must be d.to.
	pc := d.s.parity[cur]
	wantLast := pc
	if remaining%2 == 1 {
		wantLast = 1 - pc
	}
	if d.s.parity[d.to] != wantLast {
		return false
	}
	needOpp := (remaining + 1) / 2 // parity 1-pc
	needSame := remaining / 2      // parity pc

	// Reachability prune: BFS over unvisited vertices from cur.
	reach := uint32(1) << uint(cur)
	frontier := d.adj[cur] &^ visited
	for frontier != 0 {
		reach |= frontier
		next := uint32(0)
		for f := frontier; f != 0; f &= f - 1 {
			w := uint8(bits.TrailingZeros32(f))
			next |= d.adj[w]
		}
		frontier = next &^ visited &^ reach
	}
	if reach&(1<<uint(d.to)) == 0 {
		return false
	}
	avail := reach &^ (1 << uint(cur))
	if bits.OnesCount32(avail) < remaining {
		return false
	}
	// Count available vertices per parity.
	opp, same := 0, 0
	for a := avail; a != 0; a &= a - 1 {
		w := uint8(bits.TrailingZeros32(a))
		if d.s.parity[w] == pc {
			same++
		} else {
			opp++
		}
	}
	return opp >= needOpp && same >= needSame
}

// MaxPath returns the longest path from From to To avoiding the given
// vertices and edges, searching targets downward from the best parity-
// feasible bound. It returns the path and its vertex count, or ok=false
// when no path exists at all.
func (s *S4) MaxPath(q Query) ([]uint8, int, bool) {
	avail := BlockOrder - bits.OnesCount32(q.ForbidV)
	for t := avail; t >= 2; t-- {
		if !parityFeasible(s, q.From, q.To, q.ForbidV, t) {
			continue
		}
		qq := q
		qq.Target = t
		if path, ok := s.FindPath(qq); ok {
			return path, t, true
		}
	}
	if q.From == q.To && q.ForbidV&(1<<uint(q.From)) == 0 {
		return []uint8{q.From}, 1, true
	}
	return nil, 0, false
}

// parityFeasible checks the bipartite counting bound for a t-vertex path
// from a to b avoiding forbV.
func parityFeasible(s *S4, a, b uint8, forbV uint32, t int) bool {
	if t < 1 {
		return false
	}
	sameEnds := s.parity[a] == s.parity[b]
	if sameEnds != (t%2 == 1) {
		return false
	}
	// Count healthy vertices per parity.
	var n0, n1 int
	for i := 0; i < BlockOrder; i++ {
		if forbV&(1<<uint(i)) != 0 {
			continue
		}
		if s.parity[i] == 0 {
			n0++
		} else {
			n1++
		}
	}
	// A t-path starting at parity p uses ceil(t/2) of p when t is odd...
	p := int(s.parity[a])
	usedP := (t + 1) / 2
	usedQ := t / 2
	if p == 0 {
		return n0 >= usedP && n1 >= usedQ
	}
	return n1 >= usedP && n0 >= usedQ
}

// LongestCycleAvoiding returns the longest cycle that avoids the given
// vertex and edge sets, found by exhaustive search with the bipartite
// parity bound as the starting target. Intended for the small-n direct
// embeddings and the optimality certification experiments on S4.
func (s *S4) LongestCycleAvoiding(forbV uint32, forbE []Edge) ([]uint8, int) {
	// Upper bound from the bipartition.
	var n0, n1 int
	for i := 0; i < BlockOrder; i++ {
		if forbV&(1<<uint(i)) != 0 {
			continue
		}
		if s.parity[i] == 0 {
			n0++
		} else {
			n1++
		}
	}
	// Remove forbidden edges from the adjacency used to pick closing
	// edges; FindPath gets them through the query.
	adjEff := s.adj
	for _, e := range forbE {
		e = normEdge(e)
		adjEff[e.A] &^= 1 << uint(e.B)
		adjEff[e.B] &^= 1 << uint(e.A)
	}

	maxLen := 2 * min(n0, n1)
	for t := maxLen; t >= 4; t -= 2 { // cycles in bipartite graphs are even
		// A t-cycle is a t-path between two adjacent vertices plus the
		// closing edge; anchoring at every healthy vertex is affordable
		// at this size.
		for v := 0; v < BlockOrder; v++ {
			if forbV&(1<<uint(v)) != 0 {
				continue
			}
			for a := adjEff[v] &^ forbV; a != 0; a &= a - 1 {
				w := uint8(bits.TrailingZeros32(a))
				if int(w) < v {
					continue
				}
				q := Query{From: uint8(v), To: w, ForbidV: forbV, ForbidE: forbE, Target: t}
				if path, ok := s.FindPath(q); ok {
					return path, t
				}
			}
		}
	}
	return nil, 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
