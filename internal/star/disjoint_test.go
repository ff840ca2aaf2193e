package star

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// validateDisjointFamily checks that paths form a family of u-v paths
// sharing no internal vertex.
func validateDisjointFamily(t *testing.T, g Graph, u, v perm.Code, paths [][]perm.Code) {
	t.Helper()
	seen := map[perm.Code]int{}
	for pi, path := range paths {
		if len(path) < 2 || path[0] != u || path[len(path)-1] != v {
			t.Fatalf("path %d has bad endpoints", pi)
		}
		for i := 0; i+1 < len(path); i++ {
			if !g.Adjacent(path[i], path[i+1]) {
				t.Fatalf("path %d hop %d not an edge", pi, i)
			}
		}
		inner := map[perm.Code]bool{}
		for _, w := range path[1 : len(path)-1] {
			if w == u || w == v {
				t.Fatalf("path %d passes through an endpoint", pi)
			}
			if inner[w] {
				t.Fatalf("path %d revisits %s", pi, w.StringN(g.N()))
			}
			inner[w] = true
			seen[w]++
			if seen[w] > 1 {
				t.Fatalf("vertex %s shared by two paths", w.StringN(g.N()))
			}
		}
	}
}

// TestDisjointPathsExhaustiveS4: every ordered pair of S_4 admits
// exactly 3 internally disjoint paths — the executable form of
// "maximal fault tolerance" the paper's introduction cites.
func TestDisjointPathsExhaustiveS4(t *testing.T) {
	g := New(4)
	var all []perm.Code
	g.Vertices(func(v perm.Code) bool { all = append(all, v); return true })
	for _, u := range all {
		for _, v := range all {
			if u == v {
				continue
			}
			paths, err := g.DisjointPaths(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != g.Connectivity() {
				t.Fatalf("%s -> %s: %d disjoint paths, want %d",
					u.StringN(4), v.StringN(4), len(paths), g.Connectivity())
			}
			validateDisjointFamily(t, g, u, v, paths)
		}
	}
}

// TestDisjointPathsSampledS5S6 samples pairs at larger n.
func TestDisjointPathsSampledS5S6(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{5, 6} {
		g := New(n)
		for trial := 0; trial < 5; trial++ {
			u := perm.UnrankCode(n, rng.Intn(g.Order()))
			v := perm.UnrankCode(n, rng.Intn(g.Order()))
			if u == v {
				continue
			}
			paths, err := g.DisjointPaths(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != n-1 {
				t.Fatalf("S_%d: %d paths, want %d", n, len(paths), n-1)
			}
			validateDisjointFamily(t, g, u, v, paths)
		}
	}
}

// TestDisjointPathsAdjacent: adjacent endpoints still yield n-1 paths,
// one of them the direct edge.
func TestDisjointPathsAdjacent(t *testing.T) {
	g := New(5)
	u := perm.IdentityCode(5)
	v := u.SwapFirst(3)
	paths, err := g.DisjointPaths(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("%d paths", len(paths))
	}
	direct := false
	for _, p := range paths {
		if len(p) == 2 {
			direct = true
		}
	}
	if !direct {
		t.Fatal("no direct edge among the disjoint paths")
	}
	validateDisjointFamily(t, g, u, v, paths)
}

// TestDisjointPathsSurviveFaults ties the primitive to fault tolerance:
// remove any n-2 internal vertices and at least one path remains whole.
func TestDisjointPathsSurviveFaults(t *testing.T) {
	g := New(5)
	rng := rand.New(rand.NewSource(82))
	u := perm.IdentityCode(5)
	v := perm.Pack(perm.MustParse("54321"))
	paths, err := g.DisjointPaths(u, v)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		faulty := map[perm.Code]bool{}
		for len(faulty) < 3 { // n-2 = 3 arbitrary failures
			w := perm.UnrankCode(5, rng.Intn(120))
			if w != u && w != v {
				faulty[w] = true
			}
		}
		survivors := 0
		for _, p := range paths {
			ok := true
			for _, w := range p {
				if faulty[w] {
					ok = false
					break
				}
			}
			if ok {
				survivors++
			}
		}
		if survivors == 0 {
			t.Fatalf("trial %d: all %d disjoint paths hit by %d faults", trial, len(paths), len(faulty))
		}
	}
}

func TestDisjointPathsValidation(t *testing.T) {
	g := New(4)
	u := perm.IdentityCode(4)
	if _, err := g.DisjointPaths(u, u); err == nil {
		t.Fatal("equal endpoints accepted")
	}
	if _, err := g.DisjointPaths(u, perm.None); err == nil {
		t.Fatal("invalid endpoint accepted")
	}
}
