package pathsearch

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestCanonStructure(t *testing.T) {
	var sides [2]int
	for i := 0; i < BlockOrder; i++ {
		if d := bits.OnesCount32(Canon.Adjacency(uint8(i))); d != 3 {
			t.Fatalf("vertex %d has degree %d", i, d)
		}
		if Canon.Adjacency(uint8(i))&(1<<uint(i)) != 0 {
			t.Fatalf("self loop at %d", i)
		}
		sides[Canon.Parity(uint8(i))]++
		// Symmetry.
		for a := Canon.Adjacency(uint8(i)); a != 0; a &= a - 1 {
			j := bits.TrailingZeros32(a)
			if Canon.Adjacency(uint8(j))&(1<<uint(i)) == 0 {
				t.Fatalf("asymmetric adjacency %d-%d", i, j)
			}
			if Canon.Parity(uint8(i)) == Canon.Parity(uint8(j)) {
				t.Fatalf("edge %d-%d inside a partite set", i, j)
			}
		}
	}
	if sides != [2]int{12, 12} {
		t.Fatalf("partite sizes %v", sides)
	}
	// Index/Code roundtrip.
	for i := 0; i < BlockOrder; i++ {
		if Canon.Index(Canon.Code(uint8(i))) != uint8(i) {
			t.Fatalf("index roundtrip failed at %d", i)
		}
	}
}

// TestLaceability: S4 is Hamiltonian laceable — between EVERY pair of
// vertices in different partite sets there is a Hamiltonian path. The
// block router's healthy-block step relies on this; verified
// exhaustively (552 ordered pairs, 288 of them of opposite parity).
func TestLaceability(t *testing.T) {
	for u := 0; u < BlockOrder; u++ {
		for v := 0; v < BlockOrder; v++ {
			if u == v {
				continue
			}
			_, ok := Canon.FindPath(Query{From: uint8(u), To: uint8(v), Target: BlockOrder})
			want := Canon.Parity(uint8(u)) != Canon.Parity(uint8(v))
			if ok != want {
				t.Fatalf("Hamiltonian path %d->%d: got %v, want %v", u, v, ok, want)
			}
		}
	}
}

// TestLemma4Exhaustive is the executable Lemma 4, strengthened: for
// every faulty vertex f and every ordered pair of healthy vertices u, v
// in different partite sets (the paper requires u, v adjacent; any
// opposite-parity pair works), there is a healthy u-v path of exactly
// 22 vertices — the maximum, since the 24-vertex block is bipartite and
// loses one vertex per side. The paper's six hand-listed paths are
// replaced by this complete enumeration (24 * 253 cases).
func TestLemma4Exhaustive(t *testing.T) {
	for f := 0; f < BlockOrder; f++ {
		forb := uint32(1) << uint(f)
		for u := 0; u < BlockOrder; u++ {
			for v := 0; v < BlockOrder; v++ {
				if u == f || v == f || u == v {
					continue
				}
				if Canon.Parity(uint8(u)) == Canon.Parity(uint8(v)) {
					continue
				}
				path, ok := Canon.FindPath(Query{From: uint8(u), To: uint8(v), ForbidV: forb, Target: 22})
				if !ok {
					t.Fatalf("no 22-path %d->%d avoiding %d", u, v, f)
				}
				validatePath(t, path, 22, forb, nil)
			}
		}
	}
}

// TestLemma4PaperForm restates the original Lemma 4: u, v adjacent and
// healthy, one fault; a healthy u-v path of length 4!-3 = 21 edges (22
// vertices) exists, and no longer one can (bipartite bound).
func TestLemma4PaperForm(t *testing.T) {
	for f := 0; f < BlockOrder; f++ {
		forb := uint32(1) << uint(f)
		for u := 0; u < BlockOrder; u++ {
			if u == f {
				continue
			}
			for a := Canon.Adjacency(uint8(u)) &^ forb; a != 0; a &= a - 1 {
				v := uint8(bits.TrailingZeros32(a))
				_, n, ok := Canon.MaxPath(Query{From: uint8(u), To: v, ForbidV: forb})
				if !ok || n != 22 {
					t.Fatalf("max path %d->%d avoiding %d: %d vertices, want 22", u, v, f, n)
				}
			}
		}
	}
}

// TestEdgeAvoidingLaceability: a Hamiltonian path exists between every
// opposite-parity pair even with any single edge forbidden — the fact
// behind the edge-fault Hamiltonicity result (T5).
func TestEdgeAvoidingLaceability(t *testing.T) {
	for a := 0; a < BlockOrder; a++ {
		for m := Canon.Adjacency(uint8(a)); m != 0; m &= m - 1 {
			b := uint8(bits.TrailingZeros32(m))
			if int(b) < a {
				continue
			}
			forbE := []Edge{{A: uint8(a), B: b}}
			for u := 0; u < BlockOrder; u++ {
				for v := 0; v < BlockOrder; v++ {
					if u == v || Canon.Parity(uint8(u)) == Canon.Parity(uint8(v)) {
						continue
					}
					path, ok := Canon.FindPath(Query{From: uint8(u), To: uint8(v), ForbidE: forbE, Target: BlockOrder})
					if !ok {
						t.Fatalf("no Hamiltonian %d->%d avoiding edge %d-%d", u, v, a, b)
					}
					validatePath(t, path, BlockOrder, 0, forbE)
				}
			}
		}
	}
}

// validatePath re-checks a search result against the canonical graph.
func validatePath(t *testing.T, path []uint8, target int, forbV uint32, forbE []Edge) {
	t.Helper()
	if len(path) != target {
		t.Fatalf("path has %d vertices, want %d", len(path), target)
	}
	seen := map[uint8]bool{}
	for i, v := range path {
		if seen[v] {
			t.Fatalf("repeat vertex %d", v)
		}
		seen[v] = true
		if forbV&(1<<uint(v)) != 0 {
			t.Fatalf("forbidden vertex %d used", v)
		}
		if i == 0 {
			continue
		}
		u := path[i-1]
		if Canon.Adjacency(u)&(1<<uint(v)) == 0 {
			t.Fatalf("hop %d-%d not an edge", u, v)
		}
		for _, e := range forbE {
			e = normEdge(e)
			if (e.A == u && e.B == v) || (e.A == v && e.B == u) {
				t.Fatalf("forbidden edge %d-%d used", u, v)
			}
		}
	}
}

func TestFindPathDegenerateCases(t *testing.T) {
	if _, ok := Canon.FindPath(Query{From: 0, To: 0, Target: 1}); !ok {
		t.Error("trivial single-vertex path rejected")
	}
	if _, ok := Canon.FindPath(Query{From: 0, To: 0, Target: 2}); ok {
		t.Error("2-vertex path with equal endpoints accepted")
	}
	if _, ok := Canon.FindPath(Query{From: 0, To: 1, Target: 0}); ok {
		t.Error("target 0 accepted")
	}
	if _, ok := Canon.FindPath(Query{From: 0, To: 1, Target: 25}); ok {
		t.Error("target beyond block order accepted")
	}
	// Forbidden endpoint.
	if _, ok := Canon.FindPath(Query{From: 0, To: 1, ForbidV: 1, Target: 2}); ok {
		t.Error("forbidden source accepted")
	}
	// Parity-impossible: equal-parity endpoints with even target.
	var sameParity uint8
	for i := 1; i < BlockOrder; i++ {
		if Canon.Parity(uint8(i)) == Canon.Parity(0) {
			sameParity = uint8(i)
			break
		}
	}
	if _, ok := Canon.FindPath(Query{From: 0, To: sameParity, Target: BlockOrder}); ok {
		t.Error("parity-impossible Hamiltonian accepted")
	}
}

func TestMaxPathMonotonicity(t *testing.T) {
	// MaxPath with two same-side faults: block keeps 24-4 = 20 usable
	// on the constrained side; the longest opposite-parity path is 20.
	var f1, f2 int = -1, -1
	for i := 0; i < BlockOrder && f2 < 0; i++ {
		if Canon.Parity(uint8(i)) == 0 {
			if f1 < 0 {
				f1 = i
			} else {
				f2 = i
			}
		}
	}
	forb := uint32(1)<<uint(f1) | uint32(1)<<uint(f2)
	best := 0
	for u := 0; u < BlockOrder; u++ {
		if forb&(1<<uint(u)) != 0 {
			continue
		}
		for v := 0; v < BlockOrder; v++ {
			if v == u || forb&(1<<uint(v)) != 0 {
				continue
			}
			_, n, ok := Canon.MaxPath(Query{From: uint8(u), To: uint8(v), ForbidV: forb})
			if ok && n > best {
				best = n
			}
		}
	}
	// 10 even + 12 odd available: a path alternates, so at most
	// 10+11 = 21 vertices.
	if best != 21 {
		t.Fatalf("longest path with two same-side faults: %d, want 21", best)
	}
}

func TestLongestCycleAvoiding(t *testing.T) {
	if _, n := Canon.LongestCycleAvoiding(0, nil); n != BlockOrder {
		t.Fatalf("fault-free longest cycle %d", n)
	}
	// One fault: 22, for every position (the optimality certification).
	for f := 0; f < BlockOrder; f++ {
		cycle, n := Canon.LongestCycleAvoiding(1<<uint(f), nil)
		if n != 22 {
			t.Fatalf("fault %d: longest cycle %d", f, n)
		}
		validateCycle(t, cycle, 1<<uint(f), nil)
	}
	// Two same-side faults: 20.
	var evens []int
	for i := 0; i < BlockOrder; i++ {
		if Canon.Parity(uint8(i)) == 0 {
			evens = append(evens, i)
		}
	}
	forb := uint32(1)<<uint(evens[0]) | uint32(1)<<uint(evens[1])
	if _, n := Canon.LongestCycleAvoiding(forb, nil); n != 20 {
		t.Fatalf("two same-side faults: longest cycle %d, want 20", n)
	}
	// One forbidden edge: still Hamiltonian.
	e := []Edge{{A: 0, B: uint8(bits.TrailingZeros32(Canon.Adjacency(0)))}}
	cycle, n := Canon.LongestCycleAvoiding(0, e)
	if n != BlockOrder {
		t.Fatalf("one edge fault: longest cycle %d", n)
	}
	validateCycle(t, cycle, 0, e)
}

func validateCycle(t *testing.T, cycle []uint8, forbV uint32, forbE []Edge) {
	t.Helper()
	validatePath(t, cycle, len(cycle), forbV, forbE)
	u, v := cycle[len(cycle)-1], cycle[0]
	if Canon.Adjacency(u)&(1<<uint(v)) == 0 {
		t.Fatalf("closing hop %d-%d not an edge", u, v)
	}
	for _, e := range forbE {
		e = normEdge(e)
		if (e.A == u && e.B == v) || (e.A == v && e.B == u) {
			t.Fatalf("closing hop uses forbidden edge")
		}
	}
}

// TestFindPathRepeatable: repeated identical queries return identical
// paths, each a fresh slice the caller may modify.
func TestFindPathRepeatable(t *testing.T) {
	q := Query{From: 0, To: 1, Target: BlockOrder}
	p1, ok1 := Canon.FindPath(q)
	want := append([]uint8(nil), p1...)
	for i := range p1 {
		p1[i] = 0xFF
	}
	p2, ok2 := Canon.FindPath(q)
	if !ok1 || !ok2 || len(p2) != len(want) {
		t.Fatalf("searches found %v, %v with %d and %d vertices", ok1, ok2, len(want), len(p2))
	}
	for i := range want {
		if p2[i] != want[i] {
			t.Fatalf("vertex %d: second search gives %d, first gave %d", i, p2[i], want[i])
		}
	}
}

// TestParityPruneSoundness cross-checks the parity feasibility helper
// against brute force on random-ish cases: whenever parityFeasible says
// no, exhaustive search must also find nothing.
func TestParityPruneSoundness(t *testing.T) {
	for u := 0; u < 8; u++ {
		for v := 8; v < 16; v++ {
			if u == v {
				continue
			}
			for target := 2; target <= BlockOrder; target++ {
				feasible := parityFeasible(Canon, uint8(u), uint8(v), 0, target)
				_, ok := Canon.FindPath(Query{From: uint8(u), To: uint8(v), Target: target})
				if ok && !feasible {
					t.Fatalf("parityFeasible rejected an existing %d-path %d->%d", target, u, v)
				}
			}
		}
	}
}

// TestCoverPruneSoundness holds the degree prune to brute force. From
// random partial Hamiltonian paths, on the S4 with one random edge
// removed, that must take every vertex still reachable, whenever
// coverable rules a completion out, a search with no prune at all
// finds none; the prune must also rule some out, or it tests nothing.
func TestCoverPruneSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cut := 0
	for trial := 0; trial < 20000; trial++ {
		d := dfs{s: Canon, adj: Canon.adj, target: BlockOrder}
		a := uint8(rng.Intn(BlockOrder))
		nb := Canon.adj[a]
		for k := rng.Intn(bits.OnesCount32(nb)); k > 0; k-- {
			nb &= nb - 1
		}
		b := uint8(bits.TrailingZeros32(nb))
		d.adj[a] &^= 1 << b
		d.adj[b] &^= 1 << a
		// A random self-avoiding walk of 12 to 20 vertices.
		cur := uint8(rng.Intn(BlockOrder))
		visited := uint32(1) << cur
		for steps := 11 + rng.Intn(9); steps > 0; steps-- {
			next := d.adj[cur] &^ visited
			if next == 0 {
				break
			}
			for k := rng.Intn(bits.OnesCount32(next)); k > 0; k-- {
				next &= next - 1
			}
			cur = uint8(bits.TrailingZeros32(next))
			visited |= 1 << cur
		}
		avail := ^visited & (1<<BlockOrder - 1)
		if avail == 0 {
			continue
		}
		for k := rng.Intn(bits.OnesCount32(avail)); k > 0; k-- {
			avail &= avail - 1
		}
		d.to = uint8(bits.TrailingZeros32(avail))
		if d.coverable(cur, ^visited&(1<<BlockOrder-1)) {
			continue
		}
		cut++
		if cover(&d.adj, cur, d.to, visited) {
			t.Fatalf("coverable ruled out a path from %d to %d over the %d unvisited vertices around edge %d-%d", cur, d.to, BlockOrder-bits.OnesCount32(visited), a, b)
		}
	}
	if cut == 0 {
		t.Fatal("the degree prune ruled out no completion")
	}
}

// cover reports whether a path from cur through every vertex not in
// visited ends at to, by exhaustive search with no prune.
func cover(adj *[BlockOrder]uint32, cur, to uint8, visited uint32) bool {
	if visited == 1<<BlockOrder-1 {
		return cur == to
	}
	if cur == to {
		return false
	}
	for next := adj[cur] &^ visited; next != 0; next &= next - 1 {
		w := uint8(bits.TrailingZeros32(next))
		if cover(adj, w, to, visited|1<<w) {
			return true
		}
	}
	return false
}

// TestCodeIndexAgreesWithRank ties the canonical indexing to the
// permutation kernel.
func TestCodeIndexAgreesWithRank(t *testing.T) {
	for r := 0; r < BlockOrder; r++ {
		c := perm.UnrankCode(4, r)
		if Canon.Index(c) != uint8(r) {
			t.Fatalf("Index(%s) = %d, want %d", c.StringN(4), Canon.Index(c), r)
		}
	}
}

// TestBudgetCapTermination: a tiny node budget makes the search give up
// instead of hanging, and the truncated verdict does not outlive its
// query.
func TestBudgetCapTermination(t *testing.T) {
	q := Query{From: 2, To: 3, Target: BlockOrder}
	q.budgetCap = 1
	if _, ok := Canon.FindPath(q); ok {
		t.Fatal("1-node budget found a Hamiltonian path")
	}
	// The same query unconstrained succeeds (parity permitting).
	q2 := Query{From: 2, To: 3, Target: BlockOrder}
	want := Canon.Parity(2) != Canon.Parity(3)
	if _, ok := Canon.FindPath(q2); ok != want {
		t.Fatalf("unconstrained search: got %v, want %v", ok, want)
	}
}

// TestMaxPathNoRoute: MaxPath reports failure when the endpoints are
// disconnected by the forbidden set.
func TestMaxPathNoRoute(t *testing.T) {
	// Forbid all neighbors of vertex 0.
	forb := Canon.Adjacency(0)
	var to uint8
	for v := uint8(1); v < BlockOrder; v++ {
		if forb&(1<<uint(v)) == 0 {
			to = v
			break
		}
	}
	_, _, ok := Canon.MaxPath(Query{From: 0, To: to, ForbidV: forb})
	if ok {
		t.Fatal("walled-in source reached its target")
	}
}
