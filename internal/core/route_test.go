package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/substar"
)

// TestRouteR4NoHealthyCrossing constructs a fault set that poisons
// every crossing edge of one superedge; RouteR4 must fail loudly, not
// emit an invalid ring. (Such sets exceed the paper's budget — the
// router is exercised directly.)
func TestRouteR4NoHealthyCrossing(t *testing.T) {
	n := 6
	fs := faults.NewSet(n)
	positions := []int{2, 3}
	r4, err := BuildR4(n, fs, BuildSpec{Positions: positions})
	if err != nil {
		t.Fatal(err)
	}
	// Poison superedge 0 -> 1: all 6 crossing endpoints on the 0 side.
	us, _ := r4.At(0).CrossEdges(r4.At(1), nil, nil)
	if len(us) != 6 {
		t.Fatalf("expected 6 crossing edges, got %d", len(us))
	}
	for _, u := range us {
		if err := fs.AddVertex(u); err != nil {
			t.Fatal(err)
		}
	}
	_, err = RouteR4(r4, fs, paperTargets(true), Config{})
	if err == nil {
		t.Fatal("poisoned superedge routed")
	}
	if !strings.Contains(err.Error(), "no healthy crossing edge") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRouteR4FaultyEdgeCrossing: a faulty crossing EDGE removes exactly
// that junction candidate; the route succeeds on another.
func TestRouteR4FaultyEdgeCrossing(t *testing.T) {
	n := 6
	fs := faults.NewSet(n)
	positions := []int{2, 3}
	r4, err := BuildR4(n, fs, BuildSpec{Positions: positions})
	if err != nil {
		t.Fatal(err)
	}
	us, ws := r4.At(0).CrossEdges(r4.At(1), nil, nil)
	if err := fs.AddEdge(us[0], ws[0]); err != nil {
		t.Fatal(err)
	}
	ring, err := RouteR4(r4, fs, paperTargets(false), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ring) != perm.Factorial(n) {
		t.Fatalf("ring %d with one edge fault", len(ring))
	}
	for i, v := range ring {
		w := ring[(i+1)%len(ring)]
		if fs.HasEdge(v, w) {
			t.Fatal("ring used the faulty edge")
		}
	}
}

// TestRouteR4ParityFilter drives routeR4x with an explicit exit-parity
// plan and confirms every junction honors it.
func TestRouteR4ParityFilter(t *testing.T) {
	n := 6
	g := star.New(n)
	fs := faults.NewSet(n)
	r4, err := BuildR4(n, fs, BuildSpec{Positions: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// All-even-length blocks with a consistent alternating parity plan.
	exitParity := make([]int, r4.Len())
	p := 0
	for k := range exitParity {
		exitParity[k] = p // entry parity of k+1 is 1-p; even blocks keep entry==... rotate naturally
	}
	// Derive a consistent plan: pick exits all parity 0; then entries
	// are parity 1, and 24-vertex blocks connect parity-1 entries to
	// parity-0 exits — consistent.
	rt, err := routeR4x(r4, fs, func(_, vf int) []int { return []int{blockOrder - 2*vf} }, exitParity, nil)
	if err != nil {
		t.Fatal(err)
	}
	ring := rt.drain()
	if len(ring) != perm.Factorial(n) {
		t.Fatalf("ring %d", len(ring))
	}
	// Check the plan: the last vertex of each block segment must have
	// the planned parity. Blocks are 24 long here.
	for k := 0; k < r4.Len(); k++ {
		exit := ring[(k+1)*blockOrder-1]
		if g.PartiteSet(exit) != exitParity[k] {
			t.Fatalf("block %d exits with parity %d, plan %d", k, g.PartiteSet(exit), exitParity[k])
		}
	}
}

// TestRouteChainGapPoisoning mirrors the crossing test for chains.
func TestRouteChainGapPoisoning(t *testing.T) {
	n := 6
	fs := faults.NewSet(n)
	s := perm.IdentityCode(n)
	tt := perm.Pack(perm.MustParse("654321"))
	positions, _, err := fs.SeparatingPositionsSplitting(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := buildChain(n, positions, fs, s, tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	us, _ := chain.At(0).CrossEdges(chain.At(1), nil, nil)
	for _, u := range us {
		if u == s {
			continue // the source must stay healthy
		}
		fs.AddVertex(u)
	}
	_, err = routeChain(chain, fs, s, tt, Config{}, nil)
	if err == nil {
		t.Fatal("poisoned chain gap routed")
	}
}

// TestMetamorphicAutomorphism: relabeling the whole instance by a star
// automorphism must preserve embeddability and the achieved length —
// the symmetry the paper's "without loss of generality" steps rely on.
// Three families run at n=6 and n=7: symbol relabelings alone (the
// vertex-transitive half), symbol relabelings composed with random
// position relabelings that fix position 1 (the edge-transitive half,
// which moves the blocks' free positions and with them the relative
// ranks the fault-free route keys its table by), and the latter on a
// mixed set of vertex and edge faults.
func TestMetamorphicAutomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{6, 7} {
		budget := faults.MaxTolerated(n)
		for trial := 0; trial < 8; trial++ {
			sigma := perm.Unrank(n, rng.Intn(perm.Factorial(n)))
			symbols := star.Automorphism{Sigma: sigma, Tau: perm.Identity(n)}
			full := star.Automorphism{Sigma: sigma, Tau: randomTau(rng, n)}
			checkAutomorphicImage(t, faults.RandomVertices(n, budget, rng), symbols)
			checkAutomorphicImage(t, faults.RandomVertices(n, budget, rng), full)
			checkAutomorphicImage(t, faults.Mixed(n, budget-1, 1, rng), full)
		}
	}
}

// randomTau returns a random position relabeling of S_n that fixes
// position 1.
func randomTau(rng *rand.Rand, n int) perm.Perm {
	tau := perm.Identity(n)
	rng.Shuffle(n-1, func(i, j int) { tau[i+1], tau[j+1] = tau[j+1], tau[i+1] })
	return tau
}

// checkAutomorphicImage embeds fs and its image under a, and requires
// the two rings to have one length and the base ring, mapped through
// a, to be a healthy ring of the image instance: every hop an edge of
// S_n, no faulty vertex, no faulty edge, no vertex twice.
func checkAutomorphicImage(t *testing.T, fs *faults.Set, a star.Automorphism) {
	t.Helper()
	n := fs.N()
	mapped := faults.NewSet(n)
	for _, v := range fs.Vertices() {
		if err := mapped.AddVertex(a.Apply(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range fs.Edges() {
		if err := mapped.AddEdge(a.Apply(e.U), a.Apply(e.V)); err != nil {
			t.Fatal(err)
		}
	}
	basePlan, err := Embed(n, fs, Config{})
	if err != nil {
		t.Fatalf("S_%d %v: %v", n, fs, err)
	}
	imgPlan, err := Embed(n, mapped, Config{})
	if err != nil {
		t.Fatalf("S_%d %v (image of %v under %v): %v", n, mapped, fs, a, err)
	}
	if img, base := imgPlan.Result().Len(), basePlan.Result().Len(); img != base {
		t.Fatalf("S_%d %v under %v: automorphic image length %d != %d", n, fs, a, img, base)
	}
	g := star.New(n)
	ring := basePlan.Ring()
	seen := make(map[perm.Code]bool, len(ring))
	for i, v := range ring {
		u, w := a.Apply(v), a.Apply(ring[(i+1)%len(ring)])
		if seen[u] || !g.Adjacent(u, w) || mapped.HasVertex(u) || mapped.HasEdge(u, w) {
			t.Fatalf("S_%d %v under %v: mapped ring invalid at %d", n, fs, a, i)
		}
		seen[u] = true
	}
}

// TestWeightCountsIntraEdges pins weightOf's edge handling.
func TestWeightCountsIntraEdges(t *testing.T) {
	n := 5
	fs := faults.NewSet(n)
	u := perm.Pack(perm.MustParse("21345"))
	fs.AddVertex(u.SwapFirst(3))
	fs.AddEdge(u, u.SwapFirst(2))
	w := weightOf(fs)
	pat := substar.MustParse("***45")
	// Both the vertex fault and the edge (whose endpoints only permute
	// positions 1..3) are inside the pattern.
	if got := w(pat); got != 2 {
		t.Fatalf("weight = %d, want 2", got)
	}
	outside := substar.MustParse("***54")
	if got := w(outside); got != 0 {
		t.Fatalf("outside weight = %d", got)
	}
}

// TestOpportunisticWithSuperRing ensures planUpgrades degrades cleanly
// when (P1) is violated (best-effort style input).
func TestPlanUpgradesP1Violation(t *testing.T) {
	n := 6
	fs := faults.NewSet(n)
	// Two faults in the same block of the 2,3-partition: agree at 2, 3.
	fs.AddVertexString("125346")
	fs.AddVertexString("125364")
	r4, err := BuildR4(n, fs, BuildSpec{Positions: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := newSkeleton(r4, fs)
	if err != nil {
		t.Fatal(err)
	}
	upgraded, exitParity := planUpgrades(sk, n)
	if exitParity != nil {
		t.Fatal("upgrades planned despite (P1) violation")
	}
	for _, u := range upgraded {
		if u {
			t.Fatal("block marked upgraded despite (P1) violation")
		}
	}
}

// TestSuperRingReuseAcrossRouters: one R4 serves both the plain and the
// opportunistic router without mutation.
func TestSuperRingReuseAcrossRouters(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n := 6
	fs := faults.NewSet(n)
	for fs.NumVertices() < 2 {
		v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
		if v.Parity(n) == fs.NumVertices()%2 { // one fault per side
			fs.AddVertex(v)
		}
	}
	positions, _ := fs.SeparatingPositions()
	r4, err := BuildR4(n, fs, BuildSpec{
		Positions: positions, SpreadFaults: true, HealthyBorders: true,
		VerifyP1: true, VerifyP2: true, VerifyP3: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]substar.Pattern{}, r4.Vertices()...)

	plain, err := RouteR4(r4, fs, paperTargets(false), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := newSkeleton(r4, fs)
	if err != nil {
		t.Fatal(err)
	}
	upgraded, exitParity := planUpgrades(sk, n)
	if exitParity == nil {
		t.Fatal("balanced faults produced no upgrade plan")
	}
	opp, err := routeR4x(r4, fs, opportunisticTargets(upgraded), exitParity, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opp.ringLen() <= len(plain) {
		t.Fatalf("opportunistic %d <= plain %d", opp.ringLen(), len(plain))
	}
	for i, p := range r4.Vertices() {
		if p != snapshot[i] {
			t.Fatal("router mutated the super-ring")
		}
	}
}
