package star

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestBasicParameters(t *testing.T) {
	cases := []struct {
		n, order, size, degree, diameter int
	}{
		{1, 1, 0, 0, 0},
		{2, 2, 1, 1, 1},
		{3, 6, 6, 2, 3},
		{4, 24, 36, 3, 4},
		{5, 120, 240, 4, 6},
		{6, 720, 1800, 5, 7},
		{7, 5040, 15120, 6, 9},
	}
	for _, c := range cases {
		g := New(c.n)
		if g.Order() != c.order || g.Size() != c.size || g.Degree() != c.degree || g.Diameter() != c.diameter {
			t.Errorf("S_%d: got (%d,%d,%d,%d), want (%d,%d,%d,%d)", c.n,
				g.Order(), g.Size(), g.Degree(), g.Diameter(),
				c.order, c.size, c.degree, c.diameter)
		}
	}
}

func TestVerticesEnumeration(t *testing.T) {
	for n := 1; n <= 6; n++ {
		g := New(n)
		count := 0
		prev := perm.Code(0)
		g.Vertices(func(v perm.Code) bool {
			if !g.Contains(v) {
				t.Fatalf("S_%d enumerated non-vertex %#v", n, v)
			}
			if count > 0 && v.Rank(n) <= prev.Rank(n) {
				t.Fatalf("S_%d enumeration not rank-increasing", n)
			}
			prev = v
			count++
			return true
		})
		if count != g.Order() {
			t.Fatalf("S_%d enumerated %d vertices, want %d", n, count, g.Order())
		}
		// Early stop (needs at least 3 vertices to observe).
		if g.Order() >= 3 {
			count = 0
			g.Vertices(func(perm.Code) bool { count++; return count < 3 })
			if count != 3 {
				t.Fatalf("early stop visited %d", count)
			}
		}
	}
}

func TestAdjacencyStructure(t *testing.T) {
	for n := 2; n <= 5; n++ {
		g := New(n)
		var scratch []perm.Code
		g.Vertices(func(v perm.Code) bool {
			scratch = g.Neighbors(v, scratch[:0])
			if len(scratch) != n-1 {
				t.Fatalf("S_%d: %s has %d neighbors", n, v.StringN(n), len(scratch))
			}
			seen := map[perm.Code]bool{}
			for _, w := range scratch {
				if w == v {
					t.Fatalf("S_%d: self loop at %s", n, v.StringN(n))
				}
				if seen[w] {
					t.Fatalf("S_%d: duplicate neighbor of %s", n, v.StringN(n))
				}
				seen[w] = true
				if !g.Adjacent(v, w) || !g.Adjacent(w, v) {
					t.Fatalf("S_%d: adjacency not symmetric between %s and %s", n, v.StringN(n), w.StringN(n))
				}
				if d := g.EdgeDim(v, w); d < 2 || d > n || v.SwapFirst(d) != w {
					t.Fatalf("S_%d: bad edge dimension %d", n, d)
				}
			}
			return true
		})
	}
}

func TestBipartition(t *testing.T) {
	for n := 2; n <= 5; n++ {
		g := New(n)
		counts := [2]int{}
		var scratch []perm.Code
		g.Vertices(func(v perm.Code) bool {
			counts[g.PartiteSet(v)]++
			scratch = g.Neighbors(v, scratch[:0])
			for _, w := range scratch {
				if g.PartiteSet(v) == g.PartiteSet(w) {
					t.Fatalf("S_%d: edge inside partite set at %s", n, v.StringN(n))
				}
			}
			return true
		})
		if counts[0] != counts[1] {
			t.Fatalf("S_%d: unequal partite sets %v", n, counts)
		}
	}
}

func TestVisitNeighborsEarlyStop(t *testing.T) {
	g := New(5)
	visits := 0
	g.VisitNeighbors(perm.IdentityCode(5), func(perm.Code, int) bool {
		visits++
		return visits < 2
	})
	if visits != 2 {
		t.Fatalf("visited %d, want 2", visits)
	}
}

func TestDistanceAgainstBFS(t *testing.T) {
	// Exhaustive all-pairs for n = 3, 4; all pairs from several sources
	// for n = 5.
	for n := 3; n <= 4; n++ {
		g := New(n)
		g.Vertices(func(u perm.Code) bool {
			dist := g.BFSDistances(u)
			g.Vertices(func(v perm.Code) bool {
				if got := g.Distance(u, v); got != dist[v] {
					t.Fatalf("S_%d: Distance(%s, %s) = %d, BFS %d", n, u.StringN(n), v.StringN(n), got, dist[v])
				}
				return true
			})
			return true
		})
	}
	g := New(5)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		u := perm.UnrankCode(5, rng.Intn(120))
		dist := g.BFSDistances(u)
		g.Vertices(func(v perm.Code) bool {
			if got := g.Distance(u, v); got != dist[v] {
				t.Fatalf("S_5: Distance(%s, %s) = %d, BFS %d", u.StringN(5), v.StringN(5), got, dist[v])
			}
			return true
		})
	}
}

func TestDiameterMatchesEccentricity(t *testing.T) {
	for n := 2; n <= 5; n++ {
		g := New(n)
		dist := g.BFSDistances(perm.IdentityCode(n))
		ecc := 0
		for _, d := range dist {
			if d > ecc {
				ecc = d
			}
		}
		// Vertex transitivity: the eccentricity of any vertex is the
		// diameter.
		if ecc != g.Diameter() {
			t.Fatalf("S_%d: eccentricity %d, diameter formula %d", n, ecc, g.Diameter())
		}
		if len(dist) != g.Order() {
			t.Fatalf("S_%d: BFS reached %d of %d vertices (disconnected?)", n, len(dist), g.Order())
		}
	}
}

func TestRouteIsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 2; n <= 8; n++ {
		g := New(n)
		for trial := 0; trial < 50; trial++ {
			u := perm.UnrankCode(n, rng.Intn(g.Order()))
			v := perm.UnrankCode(n, rng.Intn(g.Order()))
			path := g.Route(u, v)
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("S_%d: route endpoints wrong", n)
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.Adjacent(path[i], path[i+1]) {
					t.Fatalf("S_%d: route hop %d not an edge", n, i)
				}
			}
			if len(path)-1 != g.Distance(u, v) {
				t.Fatalf("S_%d: route length %d != distance %d for %s -> %s",
					n, len(path)-1, g.Distance(u, v), u.StringN(n), v.StringN(n))
			}
		}
	}
}

func TestDistanceToIdentityKnownValues(t *testing.T) {
	cases := []struct {
		p    string
		want int
	}{
		{"1234", 0},
		{"2134", 1}, // one star operation
		{"2314", 2}, // cycle (1 2 3) through the front
		{"1324", 3}, // swap of positions 2,3 with 1 fixed: costs 3
		{"4321", 4},
		{"21", 1},
		{"132", 3},
	}
	for _, c := range cases {
		if got := DistanceToIdentity(perm.MustParse(c.p)); got != c.want {
			t.Errorf("DistanceToIdentity(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(4)
	// The six vertices with symbol 4 in position 4 form an embedded S3,
	// i.e. a 6-cycle.
	var vs []perm.Code
	g.Vertices(func(v perm.Code) bool {
		if v.Symbol(4) == 4 {
			vs = append(vs, v)
		}
		return true
	})
	if len(vs) != 6 {
		t.Fatalf("expected 6 vertices, got %d", len(vs))
	}
	adj := g.InducedSubgraph(vs)
	for _, v := range vs {
		if len(adj[v]) != 2 {
			t.Fatalf("induced degree %d at %s, want 2", len(adj[v]), v.StringN(4))
		}
	}
}

func TestEdgeSymmetrySpotCheck(t *testing.T) {
	// The star graph is edge transitive; a cheap consequence is that
	// every edge lies on the same number of 6-cycles. Count 6-cycles
	// through two structurally different-looking edges of S4 by BFS
	// enumeration of closed walks.
	g := New(4)
	countHexagons := func(u, v perm.Code) int {
		// paths u -> v of length 5 avoiding revisits = 6-cycles through
		// the edge (u, v).
		var rec func(cur perm.Code, visited map[perm.Code]bool, depth int) int
		rec = func(cur perm.Code, visited map[perm.Code]bool, depth int) int {
			if depth == 5 {
				if g.Adjacent(cur, u) && cur == v {
					return 1
				}
				return 0
			}
			total := 0
			var scratch []perm.Code
			scratch = g.Neighbors(cur, scratch)
			for _, w := range scratch {
				if visited[w] {
					continue
				}
				if w == v && depth != 4 {
					continue
				}
				visited[w] = true
				total += rec(w, visited, depth+1)
				delete(visited, w)
			}
			return total
		}
		id := u
		return rec(id, map[perm.Code]bool{u: true}, 0)
	}
	a := perm.IdentityCode(4)
	e1 := countHexagons(a, a.SwapFirst(2))
	e2 := countHexagons(a.SwapFirst(3), a.SwapFirst(3).SwapFirst(4))
	if e1 != e2 || e1 == 0 {
		t.Fatalf("hexagon counts differ: %d vs %d", e1, e2)
	}
}

func TestRouteAvoiding(t *testing.T) {
	g := New(5)
	u := perm.IdentityCode(5)
	v := perm.Pack(perm.MustParse("54321"))
	all := func(perm.Code) bool { return true }
	path, ok := g.RouteAvoiding(u, v, all)
	if !ok || len(path)-1 != g.Distance(u, v) {
		t.Fatalf("unobstructed RouteAvoiding not shortest: %d vs %d", len(path)-1, g.Distance(u, v))
	}

	// Forbid every vertex on the shortest path's interior: a detour must
	// exist (connectivity 4) and be at least as long.
	blocked := map[perm.Code]bool{}
	for _, w := range path[1 : len(path)-1] {
		blocked[w] = true
	}
	detour, ok := g.RouteAvoiding(u, v, func(w perm.Code) bool { return !blocked[w] })
	if !ok {
		t.Fatal("no detour despite high connectivity")
	}
	if len(detour) < len(path) {
		t.Fatal("detour shorter than the shortest path")
	}
	for _, w := range detour[1 : len(detour)-1] {
		if blocked[w] {
			t.Fatal("detour used a blocked vertex")
		}
	}

	// Sealing off the target: all neighbors of v blocked.
	sealed := map[perm.Code]bool{}
	g.VisitNeighbors(v, func(w perm.Code, _ int) bool { sealed[w] = true; return true })
	if _, ok := g.RouteAvoiding(u, v, func(w perm.Code) bool { return !sealed[w] }); ok {
		t.Fatal("route through a sealed target")
	}

	// Trivial case.
	if p, ok := g.RouteAvoiding(u, u, all); !ok || len(p) != 1 {
		t.Fatal("self route wrong")
	}
}
