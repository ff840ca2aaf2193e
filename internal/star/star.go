// Package star implements the n-dimensional star graph S_n substrate:
// adjacency, traversal, the bipartition into even and odd permutations,
// exact distances (both by breadth-first search and by the closed-form
// cycle formula of Akers and Krishnamurthy), shortest-path routing and
// diameter. The star graph is the interconnection topology the paper
// embeds rings into; everything else in this repository sits on top of
// this package.
package star

import (
	"fmt"

	"repro/internal/perm"
)

// Graph is the n-dimensional star graph S_n. It is a lightweight value:
// the vertex set (the n! permutations of 1..n) is never materialized by
// the Graph itself; callers iterate or rank/unrank on demand.
type Graph struct {
	n int
}

// New returns S_n. The paper considers n >= 3 throughout (S_1 is a
// vertex, S_2 an edge, S_3 a 6-cycle); we accept n >= 1 so the trivial
// cases remain expressible in tests.
func New(n int) Graph {
	if n < 1 || n > perm.MaxN {
		mustFailf("star: dimension %d out of range [1,%d]", n, perm.MaxN)
	}
	return Graph{n: n}
}

// mustFailf is the package's invariant helper: it panics with a
// formatted message. Callers test the invariant themselves and call it
// only from the failing branch, so the message arguments are built
// only when a check fails. Used only for programmer-error
// preconditions, never data-dependent conditions.
func mustFailf(format string, args ...interface{}) {
	panic(fmt.Sprintf(format, args...))
}

// N returns the dimension of the graph.
func (g Graph) N() int { return g.n }

// Order returns the number of vertices, n!.
func (g Graph) Order() int { return perm.Factorial(g.n) }

// Size returns the number of edges, n!*(n-1)/2.
//
//starlint:ignore factsize n <= MaxN = 16 keeps n!*(n-1)/2 below 2^48; perm's compile guard requires 64-bit int
func (g Graph) Size() int { return g.Order() * (g.n - 1) / 2 }

// Degree returns the regular degree n-1.
func (g Graph) Degree() int { return g.n - 1 }

// Diameter returns the exact diameter floor(3(n-1)/2) (Akers, Harel,
// Krishnamurthy 1986).
func (g Graph) Diameter() int { return 3 * (g.n - 1) / 2 }

// Contains reports whether c encodes a vertex of this graph.
func (g Graph) Contains(c perm.Code) bool { return c.Valid(g.n) }

// Neighbors appends the n-1 neighbors of v to dst and returns it.
// Neighbor i-2 of the result is v with positions 1 and i swapped.
func (g Graph) Neighbors(v perm.Code, dst []perm.Code) []perm.Code {
	for i := 2; i <= g.n; i++ {
		dst = append(dst, v.SwapFirst(i))
	}
	return dst
}

// VisitNeighbors calls f for each neighbor of v along with the dimension
// of the connecting edge, stopping early if f returns false.
func (g Graph) VisitNeighbors(v perm.Code, f func(w perm.Code, dim int) bool) {
	for i := 2; i <= g.n; i++ {
		if !f(v.SwapFirst(i), i) {
			return
		}
	}
}

// Adjacent reports whether u and v are joined by an edge of S_n.
func (g Graph) Adjacent(u, v perm.Code) bool { return perm.Adjacent(u, v, g.n) }

// EdgeDim returns the dimension (2..n) of the edge {u, v}, or 0 when the
// two vertices are not adjacent.
func (g Graph) EdgeDim(u, v perm.Code) int { return perm.DimOf(u, v, g.n) }

// Vertices calls f on every vertex of S_n in lexicographic rank order,
// stopping early if f returns false. The enumeration is allocation-free
// per step apart from the iteration permutation itself.
func (g Graph) Vertices(f func(v perm.Code) bool) {
	p := perm.Identity(g.n)
	for {
		if !f(perm.Pack(p)) {
			return
		}
		if !nextPermutation(p) {
			return
		}
	}
}

// nextPermutation advances p to its lexicographic successor in place,
// returning false when p was the final permutation.
func nextPermutation(p perm.Perm) bool {
	n := len(p)
	i := n - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := n - 1
	for p[j] <= p[i] {
		j--
	}
	//starlint:ignore permalias advancing p to its successor in place is this helper's whole contract
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}

// PartiteSet returns 0 or 1: the side of the bipartition (even or odd
// permutations) containing v. Every edge of S_n joins the two sides, and
// both sides have exactly n!/2 vertices for n >= 2.
func (g Graph) PartiteSet(v perm.Code) int { return v.Parity(g.n) }

// Distance returns the exact shortest-path distance between u and v
// using the closed-form cycle formula; see DistanceToIdentity.
func (g Graph) Distance(u, v perm.Code) int {
	// The star graph is vertex transitive under left multiplication:
	// relabeling symbols by u^-1 maps u to the identity and preserves
	// the generators (which act on positions). d(u,v) = d(e, u^-1 ∘ v).
	up := u.Unpack(g.n)
	vp := v.Unpack(g.n)
	rel := up.Inverse().Compose(vp)
	return DistanceToIdentity(rel)
}

// DistanceToIdentity returns the shortest number of star operations
// (swap position 1 with position i) needed to sort p. With c the number
// of nontrivial cycles of p and m the number of misplaced symbols:
//
//	d = m + c      if p fixes position 1,
//	d = m + c - 2  otherwise.
//
// (Akers and Krishnamurthy, 1989.)
func DistanceToIdentity(p perm.Perm) int {
	n := len(p)
	var visited uint32
	m, c := 0, 0
	for i := 0; i < n; i++ {
		if visited&(1<<uint(i)) != 0 {
			continue
		}
		if int(p[i]) == i+1 {
			visited |= 1 << uint(i)
			continue
		}
		c++
		for j := i; visited&(1<<uint(j)) == 0; j = int(p[j]) - 1 {
			visited |= 1 << uint(j)
			m++
		}
	}
	if m == 0 {
		return 0
	}
	if int(p[0]) == 1 {
		return m + c
	}
	return m + c - 2
}

// Route returns a shortest u-v path, inclusive of both endpoints, as a
// sequence of adjacent vertices. It follows the greedy optimal routing
// rule for star graphs: if the symbol at position 1 is misplaced, send
// it home; otherwise move any misplaced symbol's home position forward.
func (g Graph) Route(u, v perm.Code) []perm.Code {
	n := g.n
	path := []perm.Code{u}
	// Work with the relative permutation target: we want cur == v.
	cur := u
	for cur != v {
		// rel(i) = position in v of the symbol at position i of cur.
		first := cur.Symbol(1)
		home := v.PositionOf(n, first)
		var next perm.Code
		if home != 1 {
			// The symbol in position 1 is misplaced: one star operation
			// sends it home.
			next = cur.SwapFirst(home)
		} else {
			// Position 1 already holds the right symbol; bring any
			// misplaced symbol to the front.
			dim := 0
			for i := 2; i <= n; i++ {
				if cur.Symbol(i) != v.Symbol(i) {
					dim = i
					break
				}
			}
			if dim == 0 {
				break // cur == v
			}
			next = cur.SwapFirst(dim)
		}
		cur = next
		path = append(path, cur)
	}
	return path
}

// BFSDistances runs a breadth-first search from src and returns a map
// from vertex code to hop distance. Intended for tests and small n; the
// map holds all n! vertices.
func (g Graph) BFSDistances(src perm.Code) map[perm.Code]int {
	dist := make(map[perm.Code]int, g.Order())
	dist[src] = 0
	frontier := []perm.Code{src}
	var scratch []perm.Code
	for len(frontier) > 0 {
		var next []perm.Code
		for _, v := range frontier {
			d := dist[v]
			scratch = g.Neighbors(v, scratch[:0])
			for _, w := range scratch {
				if _, ok := dist[w]; !ok {
					dist[w] = d + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

// InducedSubgraph materializes the adjacency lists of the subgraph of
// S_n induced by the given vertex set. Useful for the exact searches in
// small blocks (the 24-vertex S4 blocks of the embedding algorithm).
func (g Graph) InducedSubgraph(vertices []perm.Code) map[perm.Code][]perm.Code {
	in := make(map[perm.Code]bool, len(vertices))
	for _, v := range vertices {
		in[v] = true
	}
	adj := make(map[perm.Code][]perm.Code, len(vertices))
	var scratch []perm.Code
	for _, v := range vertices {
		scratch = g.Neighbors(v, scratch[:0])
		for _, w := range scratch {
			if in[w] {
				adj[v] = append(adj[v], w)
			}
		}
	}
	return adj
}

// RouteAvoiding returns a shortest u-v path whose internal vertices all
// satisfy healthy (endpoints are not checked), or ok=false when the
// forbidden set disconnects the pair. Plain BFS over the healthy
// subgraph; the greedy Route is optimal only in the fault-free graph.
func (g Graph) RouteAvoiding(u, v perm.Code, healthy func(perm.Code) bool) ([]perm.Code, bool) {
	if u == v {
		return []perm.Code{u}, true
	}
	prev := map[perm.Code]perm.Code{u: u}
	frontier := []perm.Code{u}
	var scratch []perm.Code
	for len(frontier) > 0 {
		var next []perm.Code
		for _, x := range frontier {
			scratch = g.Neighbors(x, scratch[:0])
			for _, y := range scratch {
				if _, seen := prev[y]; seen {
					continue
				}
				if y != v && !healthy(y) {
					continue
				}
				prev[y] = x
				if y == v {
					var path []perm.Code
					for cur := v; ; cur = prev[cur] {
						path = append(path, cur)
						if cur == u {
							break
						}
					}
					for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
						path[l], path[r] = path[r], path[l]
					}
					return path, true
				}
				next = append(next, y)
			}
		}
		frontier = next
	}
	return nil, false
}
