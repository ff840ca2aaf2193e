package star

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/perm"
)

func randomAutomorphism(rng *rand.Rand, n int) Automorphism {
	sigma := perm.Unrank(n, rng.Intn(perm.Factorial(n)))
	// Random tau fixing position 1.
	rest := perm.Unrank(n-1, rng.Intn(perm.Factorial(n-1)))
	tau := make(perm.Perm, n)
	tau[0] = 1
	for i, s := range rest {
		tau[i+1] = s + 1
	}
	a, err := NewAutomorphism(sigma, tau)
	if err != nil {
		panic(err)
	}
	return a
}

func TestAutomorphismValidation(t *testing.T) {
	if _, err := NewAutomorphism(perm.Identity(4), perm.MustParse("2134")); err == nil {
		t.Fatal("tau moving position 1 accepted")
	}
	if _, err := NewAutomorphism(perm.Identity(4), perm.Identity(5)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestAutomorphismPreservesAdjacency checks the defining property
// exhaustively on S_4 for a sample of automorphisms, and on S_5 for a
// few random ones.
func TestAutomorphismPreservesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{4, 5} {
		g := New(n)
		var all []perm.Code
		g.Vertices(func(v perm.Code) bool { all = append(all, v); return true })
		for trial := 0; trial < 10; trial++ {
			a := randomAutomorphism(rng, n)
			if !a.PreservesAdjacency(g, all) {
				t.Fatalf("S_%d: automorphism %v/%v breaks adjacency", n, a.Sigma, a.Tau)
			}
			// Bijectivity.
			seen := map[perm.Code]bool{}
			for _, v := range all {
				w := a.Apply(v)
				if !w.Valid(n) || seen[w] {
					t.Fatalf("S_%d: automorphism not a bijection at %s", n, v.StringN(n))
				}
				seen[w] = true
			}
		}
	}
}

func TestAutomorphismGroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 5
	g := New(n)
	for trial := 0; trial < 20; trial++ {
		a := randomAutomorphism(rng, n)
		b := randomAutomorphism(rng, n)
		v := perm.UnrankCode(n, rng.Intn(g.Order()))
		// Compose semantics: (a then b)(v) == b(a(v)).
		if a.Compose(b).Apply(v) != b.Apply(a.Apply(v)) {
			t.Fatal("Compose semantics wrong")
		}
		// Inverse undoes.
		if a.Inverse().Apply(a.Apply(v)) != v {
			t.Fatal("Inverse broken")
		}
		// Identity.
		if IdentityAutomorphism(n).Apply(v) != v {
			t.Fatal("identity broken")
		}
	}
}

// TestVertexTransitivity: a symbol relabeling carries any vertex to any
// other, preserving distances.
func TestVertexTransitivity(t *testing.T) {
	n := 5
	g := New(n)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		u := perm.UnrankCode(n, rng.Intn(g.Order()))
		v := perm.UnrankCode(n, rng.Intn(g.Order()))
		a := VertexTransporter(n, u, v)
		if a.Apply(u) != v {
			t.Fatal("transporter misses")
		}
		// Distance preservation spot check.
		w := perm.UnrankCode(n, rng.Intn(g.Order()))
		if g.Distance(u, w) != g.Distance(v, a.Apply(w)) {
			t.Fatal("transporter distorts distances")
		}
	}
}

// TestEdgeTransitivity: every directed edge maps to every other — the
// symmetry Lemma 4's "without loss of generality" rests on. Exhaustive
// over a sample of edge pairs in S_4.
func TestEdgeTransitivity(t *testing.T) {
	n := 4
	g := New(n)
	type edge struct{ a, b perm.Code }
	var edges []edge
	g.Vertices(func(v perm.Code) bool {
		g.VisitNeighbors(v, func(w perm.Code, _ int) bool {
			edges = append(edges, edge{v, w})
			return true
		})
		return true
	})
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 200; trial++ {
		e1 := edges[rng.Intn(len(edges))]
		e2 := edges[rng.Intn(len(edges))]
		a, err := EdgeTransporter(n, e1.a, e1.b, e2.a, e2.b)
		if err != nil {
			t.Fatal(err)
		}
		if a.Apply(e1.a) != e2.a || a.Apply(e1.b) != e2.b {
			t.Fatal("edge transporter misses")
		}
	}
	if _, err := EdgeTransporter(n, edges[0].a, edges[0].a, edges[1].a, edges[1].b); err == nil {
		t.Fatal("non-edge accepted")
	}
}

func TestQuickAutomorphismPreservesParityRelation(t *testing.T) {
	// Automorphisms either preserve or flip the bipartition globally;
	// adjacent vertices must stay in different classes either way.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		g := New(n)
		a := randomAutomorphism(rng, n)
		v := perm.UnrankCode(n, rng.Intn(g.Order()))
		w := v.SwapFirst(2 + rng.Intn(n-1))
		return g.PartiteSet(a.Apply(v)) != g.PartiteSet(a.Apply(w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
