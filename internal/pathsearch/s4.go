// Package pathsearch performs exact path searches inside the 24-vertex
// S4 blocks that the embedding algorithm routes through. It is the
// operational form of the paper's Lemmas 4, 5 and 6: instead of the six
// hand-listed fault-avoiding paths of Lemma 4 and the 6-cycle case
// analysis of Lemmas 5-6, every block query is answered by an exhaustive
// depth-first search over the canonical S4 (with parity, reachability
// and degree pruning). Every embedded S4 of S_n is isomorphic to the
// canonical S4 by relabeling free positions and free symbols, so a
// query depends only on its canonical form.
//
// The two queries the paper's algorithm asks are not searched at run
// time at all. A fault-free block's 24-vertex path depends only on its
// canonical ends, and Lemma 4's 22-vertex detour around a block's one
// faulty vertex only on its canonical ends and fault: the search wrote
// their answers into two committed step-word tables (tables.go,
// regenerated by go generate through ./gensteps), which Hamiltonian and
// Block.Route read. Every other query — best effort's shorter targets,
// odd targets, several faulty vertices, faulty edges — runs the search
// on each call. The search stays the tables' generator and their test
// oracle, and the package holds no mutable state but a search counter.
package pathsearch

import (
	"math/bits"

	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/star"
)

// BlockOrder is the number of vertices of an S4 block, 4!.
const BlockOrder = 24

// S4 is the canonical 4-dimensional star graph with vertices indexed by
// lexicographic rank (0..23). The package-level singleton Canon is
// shared by all searches; it is immutable after construction apart
// from its search counter, which is atomic.
type S4 struct {
	adj    [BlockOrder]uint32 // adjacency bitmasks
	parity [BlockOrder]uint8  // 0 = even permutation, 1 = odd
	side   [2]uint32          // bitmask of the vertices of each parity
	codes  [BlockOrder]perm.Code

	// searches counts the queries the search answered, always on (an
	// atomic add is noise next to a search). Read via CacheStats.
	searches obs.Counter
}

// canonFree is the canonical S4's free positions: all four.
var canonFree = [4]uint8{1, 2, 3, 4}

// Canon is the shared canonical S4.
var Canon = newS4()

func newS4() *S4 {
	s := &S4{}
	g := star.New(4)
	i := 0
	g.Vertices(func(v perm.Code) bool {
		s.codes[i] = v
		s.parity[i] = uint8(v.Parity(4))
		s.side[s.parity[i]] |= 1 << uint(i)
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

// CacheStats returns (0, searches, 0), where searches counts the
// queries the search has answered in this process: every FindPath, and
// every Block.Route that neither step-word table answers.
//
// Deprecated: nothing caches block queries any more; only the search
// count is left, in the misses slot.
func (s *S4) CacheStats() (hits, misses, bypasses int64) { return 0, s.searches.Value(), 0 }

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

// Query describes one block search. Target is the exact number of
// vertices the path must visit (endpoints included).
type Query struct {
	From, To  uint8
	ForbidV   uint32 // bitmask of forbidden vertices
	ForbidE   []Edge // forbidden edges, if any
	Target    int
	budgetCap int64 // 0 means default

	// NoHeuristic disables the Warnsdorff branch ordering, to measure
	// its contribution (ablation benchmarks only).
	NoHeuristic bool
}

// FindPath searches for a path visiting exactly q.Target vertices from
// q.From to q.To, avoiding forbidden vertices and edges. The returned
// slice is fresh and lists canonical vertex indices, starting at From
// and ending at To. The second result reports success.
func (s *S4) FindPath(q Query) ([]uint8, bool) {
	path := s.find(q)
	return path, path != nil
}

// route is FindPath's step-word form: the word tableRoute reads when
// one of the committed tables answers q, or else the word of the path
// searched on this call.
func (s *S4) route(q Query) (Steps, bool) {
	if w, ok := tableRoute(q); ok {
		return w, w != 0
	}
	if path := s.find(q); path != nil {
		return s.steps(path), true
	}
	return 0, false
}

// tableRoute reads the committed tables the search generated for the
// two queries the paper's algorithm asks: with no faulty edge, a
// fault-free target of the whole block is hamiltonian[From][To], and
// Lemma 4's 22-vertex detour around exactly one faulty vertex f is
// detour[f][From][To]; a zero word means no such path. ok is false for
// every other query. Every Block.Route the strict algorithm asks, the
// junction search's on a faulty block and a repair's splice, ends
// here, and hotalloc keeps it allocation-free.
//
//starlint:hotpath
func tableRoute(q Query) (w Steps, ok bool) {
	if len(q.ForbidE) != 0 {
		return 0, false
	}
	switch {
	case q.Target == BlockOrder && q.ForbidV == 0:
		return hamiltonian[q.From][q.To], true
	case q.Target == BlockOrder-2 && bits.OnesCount32(q.ForbidV) == 1:
		return detour[bits.TrailingZeros32(q.ForbidV)][q.From][q.To], true
	}
	return 0, false
}

// find searches q and returns the path found, or nil when there is
// none.
func (s *S4) find(q Query) []uint8 {
	s.searches.Inc()
	if q.Target < 1 || q.Target > BlockOrder {
		return nil
	}
	if q.ForbidV&(1<<uint(q.From)) != 0 || q.ForbidV&(1<<uint(q.To)) != 0 {
		return nil
	}
	if q.From == q.To {
		if q.Target == 1 {
			return []uint8{q.From}
		}
		return nil
	}

	d := dfs{
		s:           s,
		adj:         s.adj,
		to:          q.To,
		target:      q.Target,
		budget:      1 << 22,
		noHeuristic: q.NoHeuristic,
	}
	if q.budgetCap > 0 {
		d.budget = q.budgetCap
	}
	for _, e := range q.ForbidE {
		e = normEdge(e)
		d.adj[e.A] &^= 1 << uint(e.B)
		d.adj[e.B] &^= 1 << uint(e.A)
	}
	d.path = append(make([]uint8, 0, q.Target), q.From)
	if !d.run(q.From, q.ForbidV|1<<uint(q.From)) {
		return nil
	}
	return d.path
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

// dfs carries the state of one target-path search.
type dfs struct {
	s           *S4
	adj         [BlockOrder]uint32 // the S4's, less the forbidden edges
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

// feasible applies the parity, reachability and degree prunes.
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
	n := bits.OnesCount32(avail)
	same := bits.OnesCount32(avail & d.s.side[pc]) // available vertices of cur's parity
	if n < remaining || n-same < needOpp || same < needSame {
		return false
	}
	return n > remaining || d.coverable(cur, avail)
}

// coverable is the degree prune of a path that must take every vertex
// of avail after cur, ending at d.to: each of them but d.to needs two
// neighbors among avail and cur, and at most one of them may be left
// with cur as one of only two, since cur has one successor. The prune
// cuts only subtrees that hold no path, so the search returns the path
// it would return without it; it spares the searches that must cover
// the block, such as a 24-vertex path around a faulty edge or a
// 23-vertex path around a faulty vertex, most of their nodes.
func (d *dfs) coverable(cur uint8, avail uint32) bool {
	open := avail | 1<<uint(cur)
	forced := 0
	for a := avail &^ (1 << uint(d.to)); a != 0; a &= a - 1 {
		nb := d.adj[bits.TrailingZeros32(a)] & open
		switch bits.OnesCount32(nb) {
		case 0, 1:
			return false
		case 2:
			if nb&(1<<uint(cur)) != 0 {
				forced++
			}
		}
	}
	return forced <= 1
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
