package faults

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/perm"
	"repro/internal/substar"
)

func TestAddAndQuery(t *testing.T) {
	s := NewSet(4)
	v := perm.Pack(perm.MustParse("2134"))
	if s.HasVertex(v) {
		t.Fatal("empty set has a vertex")
	}
	if err := s.AddVertex(v); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVertex(v); err != nil {
		t.Fatal("re-add errored")
	}
	if s.NumVertices() != 1 || !s.HasVertex(v) {
		t.Fatal("vertex not recorded once")
	}
	if err := s.AddVertex(perm.None); err == nil {
		t.Fatal("invalid vertex accepted")
	}

	u := v.SwapFirst(2)
	if err := s.AddEdge(v, u); err != nil {
		t.Fatal(err)
	}
	if !s.HasEdge(u, v) || !s.HasEdge(v, u) {
		t.Fatal("edge not symmetric")
	}
	if s.NumEdges() != 1 {
		t.Fatal("edge count wrong")
	}
	if err := s.AddEdge(v, v); err == nil {
		t.Fatal("self edge accepted")
	}
	w := perm.Pack(perm.MustParse("4321"))
	if err := s.AddEdge(v, w); err == nil {
		t.Fatal("non-adjacent edge accepted")
	}
}

func TestAddVertexString(t *testing.T) {
	s := NewSet(5)
	if err := s.AddVertexString("21345"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVertexString("2134"); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if err := s.AddVertexString("zz"); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestAddEdgeString pins that an edge fault must join two vertices of
// S_n: adjacency alone does not make two S_7 permutations an S_6 edge.
func TestAddEdgeString(t *testing.T) {
	s := NewSet(6)
	u := perm.Pack(perm.MustParse("1234567"))
	if err := s.AddEdge(u, u.SwapFirst(2)); err == nil {
		t.Error("S_7 edge accepted into an S_6 set")
	}
	for _, bad := range []string{
		"1234567-2134567", // S_7 endpoints
		"123456",          // no dash
		"123456-",         // missing endpoint
		"zz-213456",       // garbage endpoint
		"123456-213465",   // not adjacent
	} {
		if err := s.AddEdgeString(bad); err == nil {
			t.Errorf("AddEdgeString(%q) accepted", bad)
		}
	}
	if err := s.AddEdgeString("123456-213456"); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 1 || !s.HasEdge(perm.Pack(perm.MustParse("213456")), perm.IdentityCode(6)) {
		t.Fatalf("edge not recorded once: %v", s.Edges())
	}
	// String spells the faults the way the parsers read them.
	if err := s.AddVertexString("654321"); err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "faults.Set{n=6, Fv=[654321], Fe=[213456-123456]}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSet(4)
	s.AddVertexString("2134")
	c := s.Clone()
	c.AddVertexString("3124")
	if s.NumVertices() != 1 || c.NumVertices() != 2 {
		t.Fatalf("clone not independent: %d, %d", s.NumVertices(), c.NumVertices())
	}
}

func TestCountIn(t *testing.T) {
	s := NewSet(5)
	s.AddVertexString("21345")
	s.AddVertexString("31245")
	s.AddVertexString("21354")
	p := substar.MustParse("***45")
	if got := s.CountIn(p); got != 2 {
		t.Fatalf("CountIn = %d, want 2", got)
	}
	got := s.FaultyIn(p, nil)
	if len(got) != 2 {
		t.Fatalf("FaultyIn returned %d", len(got))
	}
}

func TestIntraEdgesIn(t *testing.T) {
	s := NewSet(5)
	u := perm.Pack(perm.MustParse("21345"))
	s.AddEdge(u, u.SwapFirst(2)) // stays inside <***45>: positions 4, 5 untouched
	s.AddEdge(u, u.SwapFirst(4)) // crosses out of the pattern
	p := substar.MustParse("***45")
	if got := s.IntraEdgesIn(p, nil); len(got) != 1 {
		t.Fatalf("IntraEdgesIn = %d, want 1", len(got))
	}
}

func TestSeparatingPositionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 5; n <= 9; n++ {
		for k := 0; k <= MaxTolerated(n); k++ {
			for trial := 0; trial < 20; trial++ {
				s := RandomVertices(n, k, rng)
				positions, separated := s.SeparatingPositions()
				if !separated {
					t.Fatalf("n=%d k=%d: separation failed", n, k)
				}
				if len(positions) != n-4 {
					t.Fatalf("n=%d: %d positions, want %d", n, len(positions), n-4)
				}
				seen := map[int]bool{}
				for _, p := range positions {
					if p < 2 || p > n || seen[p] {
						t.Fatalf("bad position list %v", positions)
					}
					seen[p] = true
				}
				// Lemma 2's conclusion: every block holds <= 1 fault.
				blocks := substar.Whole(n).PartitionSeq(positions)
				for _, b := range blocks {
					if c := s.CountIn(b); c > 1 {
						t.Fatalf("n=%d k=%d: block %v holds %d faults", n, k, b, c)
					}
				}
			}
		}
	}
}

// TestSeparatingPositionsLemma3Invariant checks the refinement of
// Lemma 2 that Lemma 3's proof relies on: after only the first n-5
// positions, at most one group of two faults remains and none larger.
func TestSeparatingPositionsLemma3Invariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 6; n <= 9; n++ {
		k := MaxTolerated(n)
		for trial := 0; trial < 50; trial++ {
			s := RandomVertices(n, k, rng)
			positions, _ := s.SeparatingPositions()
			blocks := substar.Whole(n).PartitionSeq(positions[:n-5])
			pairs := 0
			for _, b := range blocks {
				switch c := s.CountIn(b); {
				case c > 2:
					t.Fatalf("n=%d: order-5 supervertex with %d faults", n, c)
				case c == 2:
					pairs++
				}
			}
			if pairs > 1 {
				t.Fatalf("n=%d: %d order-5 supervertices with two faults", n, pairs)
			}
		}
	}
}

func TestSeparatingPositionsAdversarial(t *testing.T) {
	// All faults packed into one tiny cluster: the greedy must still
	// separate because cluster members differ pairwise somewhere >= 2.
	rng := rand.New(rand.NewSource(10))
	for n := 6; n <= 8; n++ {
		k := MaxTolerated(n)
		m := 3
		for perm.Factorial(m) < k {
			m++
		}
		s, _, err := ClusteredVertices(n, k, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		positions, separated := s.SeparatingPositions()
		if !separated {
			t.Fatalf("n=%d: clustered separation failed", n)
		}
		blocks := substar.Whole(n).PartitionSeq(positions)
		for _, b := range blocks {
			if s.CountIn(b) > 1 {
				t.Fatalf("n=%d: clustered block with %d faults", n, s.CountIn(b))
			}
		}
	}
}

func TestSeparatingWithEdgeWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 5; n <= 8; n++ {
		budget := MaxTolerated(n)
		for kv := 0; kv <= budget; kv++ {
			s := Mixed(n, kv, budget-kv, rng)
			positions, separated := s.SeparatingPositions()
			if !separated {
				t.Fatalf("n=%d kv=%d: separation failed", n, kv)
			}
			blocks := substar.Whole(n).PartitionSeq(positions)
			for _, b := range blocks {
				w := s.CountIn(b)
				for _, e := range s.Edges() {
					if b.Contains(e.U) && b.Contains(e.V) {
						w++
					}
				}
				if w > 1 {
					t.Fatalf("n=%d: block with witness weight %d", n, w)
				}
			}
		}
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 6

	s := RandomVertices(n, 3, rng)
	if s.NumVertices() != 3 {
		t.Fatalf("RandomVertices: %d", s.NumVertices())
	}

	for parity := 0; parity <= 1; parity++ {
		s = SamePartiteVertices(n, 3, parity, rng)
		for _, v := range s.Vertices() {
			if v.Parity(n) != parity {
				t.Fatalf("SamePartite: vertex with parity %d", v.Parity(n))
			}
		}
	}

	cs, pattern, err := ClusteredVertices(n, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pattern.R() != 3 {
		t.Fatalf("cluster pattern order %d", pattern.R())
	}
	for _, v := range cs.Vertices() {
		if !pattern.Contains(v) {
			t.Fatalf("clustered fault %s outside %v", v.StringN(n), pattern)
		}
	}
	if _, _, err := ClusteredVertices(n, 3, 2, rng); err == nil {
		t.Fatal("overfull cluster accepted")
	}
	if _, _, err := ClusteredVertices(n, 1, 1, rng); err == nil {
		t.Fatal("cluster order 1 accepted")
	}

	es := RandomEdges(n, 3, rng)
	if es.NumEdges() != 3 || es.NumVertices() != 0 {
		t.Fatalf("RandomEdges: %d edges, %d vertices", es.NumEdges(), es.NumVertices())
	}

	ms := Mixed(n, 2, 1, rng)
	if ms.NumVertices() != 2 || ms.NumEdges() != 1 {
		t.Fatalf("Mixed: %d, %d", ms.NumVertices(), ms.NumEdges())
	}
	for _, e := range ms.Edges() {
		if ms.HasVertex(e.U) || ms.HasVertex(e.V) {
			t.Fatal("Mixed produced an edge incident to a faulty vertex")
		}
	}

	g := func(a, b perm.Code) int { // toy metric for SpreadVertices
		if a == b {
			return 0
		}
		return 1
	}
	sp := SpreadVertices(n, 3, rng, g)
	if sp.NumVertices() != 3 {
		t.Fatalf("SpreadVertices: %d", sp.NumVertices())
	}
}

func TestFromStrings(t *testing.T) {
	s, err := FromStrings(5, "21345", "32145")
	if err != nil || s.NumVertices() != 2 {
		t.Fatalf("FromStrings: %v, %d", err, s.NumVertices())
	}
	if _, err := FromStrings(5, "2134"); err == nil {
		t.Fatal("wrong-dimension string accepted")
	}
	if _, err := FromStrings(5, "zzz"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestNewEdgeNormalization(t *testing.T) {
	u := perm.Pack(perm.MustParse("2134"))
	v := u.SwapFirst(3)
	if NewEdge(u, v) != NewEdge(v, u) {
		t.Fatal("NewEdge not orientation-independent")
	}
}

func TestMaxTolerated(t *testing.T) {
	for _, c := range []struct{ n, want int }{{3, 0}, {4, 1}, {7, 4}, {2, 0}} {
		if got := MaxTolerated(c.n); got != c.want {
			t.Errorf("MaxTolerated(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuickSeparationAlwaysSucceedsWithinBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 5 // 5..8
		k := rng.Intn(MaxTolerated(n) + 1)
		s := RandomVertices(n, k, rng)
		positions, separated := s.SeparatingPositions()
		if !separated || len(positions) != n-4 {
			return false
		}
		for _, b := range substar.Whole(n).PartitionSeq(positions) {
			if s.CountIn(b) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
