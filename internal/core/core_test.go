package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

func TestEmbedValidation(t *testing.T) {
	if _, err := Embed(2, nil, Config{}); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := Embed(17, nil, Config{}); err == nil {
		t.Error("n=17 accepted")
	}
	fs := faults.NewSet(5)
	if _, err := Embed(6, fs, Config{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestEmbedBudgetEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fs := faults.RandomVertices(6, 4, rng) // budget is 3
	_, err := Embed(6, fs, Config{})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	// Best effort proceeds and the result is verified but unguaranteed.
	plan, err := Embed(6, fs, Config{BestEffort: true})
	if err != nil {
		t.Fatalf("best effort failed: %v", err)
	}
	res := plan.Result()
	if res.Guaranteed {
		t.Fatal("over-budget result claims a guarantee")
	}
	if err := check.Ring(star.New(6), plan.Ring(), fs, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedS3(t *testing.T) {
	plan, err := Embed(3, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Result()
	if res.Len() != 6 {
		t.Fatalf("S_3 ring length %d", res.Len())
	}
	fs := faults.NewSet(3)
	fs.AddVertexString("213")
	if _, err := Embed(3, fs, Config{BestEffort: true}); !errors.Is(err, ErrNoRing) {
		t.Fatalf("faulty S_3: want ErrNoRing, got %v", err)
	}
}

// TestEmbedS4Exhaustive covers the n = 4 base case of Theorem 1 for
// every possible fault: ring of exactly 22 = 4! - 2.
func TestEmbedS4Exhaustive(t *testing.T) {
	g := star.New(4)
	for r := 0; r < 24; r++ {
		fs := faults.NewSet(4)
		fs.AddVertex(perm.UnrankCode(4, r))
		plan, err := Embed(4, fs, Config{})
		if err != nil {
			t.Fatalf("fault %d: %v", r, err)
		}
		res := plan.Result()
		if res.Len() != 22 {
			t.Fatalf("fault %d: length %d", r, res.Len())
		}
		if err := check.Ring(g, plan.Ring(), fs, 22); err != nil {
			t.Fatalf("fault %d: %v", r, err)
		}
	}
}

// TestEmbedS4EdgeFaultExhaustive: every single edge fault leaves S4
// Hamiltonian (the |Fe| <= n-3 = 1 companion result).
func TestEmbedS4EdgeFaultExhaustive(t *testing.T) {
	g := star.New(4)
	g.Vertices(func(u perm.Code) bool {
		g.VisitNeighbors(u, func(w perm.Code, _ int) bool {
			if w < u {
				return true
			}
			fs := faults.NewSet(4)
			fs.AddEdge(u, w)
			plan, err := Embed(4, fs, Config{})
			if err != nil {
				t.Fatalf("edge %s-%s: %v", u.StringN(4), w.StringN(4), err)
			}
			res := plan.Result()
			if res.Len() != 24 {
				t.Fatalf("edge %s-%s: length %d", u.StringN(4), w.StringN(4), res.Len())
			}
			if err := check.Ring(g, plan.Ring(), fs, 24); err != nil {
				t.Fatal(err)
			}
			return true
		})
		return true
	})
}

// TestEmbedS5ExhaustiveSingles: every single-fault position in S_5
// yields a verified ring of exactly 118.
func TestEmbedS5ExhaustiveSingles(t *testing.T) {
	g := star.New(5)
	for r := 0; r < 120; r++ {
		fs := faults.NewSet(5)
		fs.AddVertex(perm.UnrankCode(5, r))
		plan, err := Embed(5, fs, Config{})
		if err != nil {
			t.Fatalf("fault %d: %v", r, err)
		}
		res := plan.Result()
		if res.Len() < 118 {
			t.Fatalf("fault %d: length %d", r, res.Len())
		}
		if err := check.Ring(g, plan.Ring(), fs, 118); err != nil {
			t.Fatalf("fault %d: %v", r, err)
		}
	}
}

// TestEmbedS5ExhaustivePairs sweeps all C(120,2) = 7140 fault pairs in
// S_5, the full budget: the strongest exhaustive witness of Theorem 1
// this suite affords.
func TestEmbedS5ExhaustivePairs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive pair sweep")
	}
	for a := 0; a < 120; a++ {
		va := perm.UnrankCode(5, a)
		for b := a + 1; b < 120; b++ {
			fs := faults.NewSet(5)
			fs.AddVertex(va)
			fs.AddVertex(perm.UnrankCode(5, b))
			plan, err := Embed(5, fs, Config{})
			if err != nil {
				t.Fatalf("faults (%d,%d): %v", a, b, err)
			}
			res := plan.Result()
			if res.Len() < 116 {
				t.Fatalf("faults (%d,%d): length %d", a, b, res.Len())
			}
		}
	}
}

func TestEmbedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	fs := faults.RandomVertices(7, 4, rng)
	aPlan, err := Embed(7, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bPlan, err := Embed(7, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := aPlan.Ring(), bPlan.Ring()
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rings diverge at %d", i)
		}
	}
}

func TestEmbedFaultFreeIsHamiltonian(t *testing.T) {
	for n := 3; n <= 8; n++ {
		plan, err := Embed(n, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res := plan.Result()
		if res.Len() != perm.Factorial(n) {
			t.Fatalf("S_%d: length %d", n, res.Len())
		}
	}
}

func TestEmbedResultMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	fs := faults.RandomVertices(7, 3, rng)
	plan, err := Embed(7, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Result()
	if res.N != 7 || res.VertexFaults != 3 || res.EdgeFaults != 0 {
		t.Fatal("metadata wrong")
	}
	if res.Blocks != perm.Factorial(7)/24 {
		t.Fatalf("blocks %d", res.Blocks)
	}
	if res.FaultyBlocks < 1 || res.FaultyBlocks > 3 {
		t.Fatalf("faulty blocks %d", res.FaultyBlocks)
	}
	if len(res.Positions) != 3 {
		t.Fatalf("positions %v", res.Positions)
	}
	if !res.Guaranteed || res.Guarantee != 5040-6 {
		t.Fatal("guarantee wrong")
	}
}

// TestVerifyRejectsTamperedLength: self-verification checks the
// emitted vertex count against Result.Length, so a plan whose recorded
// length disagrees with its cursor fails verification.
func TestVerifyRejectsTamperedLength(t *testing.T) {
	p := planOn(t, 6, Config{})
	if err := p.verify(); err != nil {
		t.Fatalf("untampered plan: %v", err)
	}
	for _, delta := range []int{1, -1} {
		p.res.Length += delta
		err := p.verify()
		p.res.Length -= delta
		want := fmt.Sprintf("emitted 720 vertices, embedding reports %d", 720+delta)
		if !errors.Is(err, check.ErrInvalidRing) || !strings.Contains(err.Error(), want) {
			t.Errorf("length %+d: verify() = %v, want %q", delta, err, want)
		}
	}
}

// TestWorstCaseMatchesCeiling: same-partite faults make the algorithm
// provably optimal; confirm equality achieved across dimensions.
func TestWorstCaseMatchesCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 5; n <= 8; n++ {
		for parity := 0; parity <= 1; parity++ {
			fs := faults.SamePartiteVertices(n, faults.MaxTolerated(n), parity, rng)
			plan, err := Embed(n, fs, Config{})
			if err != nil {
				t.Fatal(err)
			}
			res := plan.Result()
			if res.Len() != res.UpperBound {
				t.Fatalf("S_%d parity %d: len %d != ceiling %d", n, parity, res.Len(), res.UpperBound)
			}
		}
	}
}

// TestBuildSpecValidation exercises the exported plumbing directly.
func TestBuildSpecValidation(t *testing.T) {
	fs := faults.NewSet(6)
	if _, err := BuildR4(6, fs, BuildSpec{Positions: []int{2}}); err == nil {
		t.Fatal("wrong position count accepted")
	}
	r4, err := BuildR4(6, fs, BuildSpec{Positions: []int{2, 3}, VerifyP1: true, VerifyP2: true, VerifyP3: true})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Len() != 30 || r4.Order() != 4 {
		t.Fatalf("R4: len=%d order=%d", r4.Len(), r4.Order())
	}
}

// TestEmbedS6ExhaustiveSingles: every single-fault position in S_6
// yields a verified ring of at least 718.
func TestEmbedS6ExhaustiveSingles(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	for r := 0; r < 720; r++ {
		fs := faults.NewSet(6)
		fs.AddVertex(perm.UnrankCode(6, r))
		plan, err := Embed(6, fs, Config{})
		if err != nil {
			t.Fatalf("fault %d: %v", r, err)
		}
		res := plan.Result()
		if res.Len() < 718 {
			t.Fatalf("fault %d: length %d", r, res.Len())
		}
	}
}

// TestEmbedAllocsPerBlock bounds the construction's allocation traffic:
// a warm embed of a fixed 2-fault S_8 set — separation, R4
// refinement, block set-up, junction search and the self-verifying
// replay — allocates at most 1 object per R4 block (0.05 measured).
// The per-vertex and per-block steps are allocation-free; what remains
// is a fixed set of per-run arrays: each refinement's flat clique and
// junction tables, and the skeleton's struct-of-arrays.
func TestEmbedAllocsPerBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("embeds S_8")
	}
	fs, err := faults.FromStrings(8, "21345678", "31245678")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEmbedder(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var blocks int
	allocs := testing.AllocsPerRun(2, func() {
		p, err := e.Embed(fs)
		if err != nil {
			t.Fatal(err)
		}
		blocks = p.Blocks()
	})
	perBlock := allocs / float64(blocks)
	t.Logf("%.0f allocations per embed, %.2f per block over %d blocks", allocs, perBlock, blocks)
	if perBlock > 1 {
		t.Errorf("embed allocates %.2f objects per block, want <= 1", perBlock)
	}
}
