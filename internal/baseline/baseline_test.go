package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
)

// TestTsengGuarantee runs the prior algorithm across dimensions and
// fault counts and confirms its ring meets (and, by construction,
// pins to) the n! - 4|Fv| bound while remaining a valid healthy ring.
func TestTsengGuarantee(t *testing.T) {
	for n := 4; n <= 7; n++ {
		for k := 0; k <= faults.MaxTolerated(n); k++ {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed*31 + int64(n*10+k)))
				fs := faults.RandomVertices(n, k, rng)
				res, err := Tseng(n, fs, core.Config{})
				if err != nil {
					t.Fatalf("Tseng(n=%d, k=%d, seed=%d): %v", n, k, seed, err)
				}
				if len(res.Ring) < res.Guarantee {
					t.Fatalf("Tseng(n=%d, k=%d): len %d < guarantee %d", n, k, len(res.Ring), res.Guarantee)
				}
			}
		}
	}
}

// TestTsengDominatedByPaper verifies the headline comparison on
// identical fault sets: the paper's ring is at least as long, with gap
// exactly 2|Fv| between the guarantees.
func TestTsengDominatedByPaper(t *testing.T) {
	for n := 5; n <= 7; n++ {
		k := faults.MaxTolerated(n)
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(n) + seed))
			fs := faults.RandomVertices(n, k, rng)
			hchPlan, err := core.Embed(n, fs, core.Config{})
			if err != nil {
				t.Fatalf("Embed: %v", err)
			}
			hch := hchPlan.Result()
			old, err := Tseng(n, fs, core.Config{})
			if err != nil {
				t.Fatalf("Tseng: %v", err)
			}
			if hch.Len() < len(old.Ring) {
				t.Errorf("n=%d seed=%d: paper ring %d shorter than Tseng ring %d", n, seed, hch.Len(), len(old.Ring))
			}
			if hch.Guarantee-old.Guarantee != 2*k {
				t.Errorf("n=%d: guarantee gap %d, want %d", n, hch.Guarantee-old.Guarantee, 2*k)
			}
		}
	}
}

// TestLatifiClustered checks the clustered baseline on fault sets inside
// an S_m for m = 2..5 and confirms the n! - m! yield and its dominance
// by the paper's n! - 2|Fv|.
func TestLatifiClustered(t *testing.T) {
	for n := 5; n <= 7; n++ {
		for m := 2; m <= 5 && m < n; m++ {
			k := faults.MaxTolerated(n)
			if f := perm.Factorial(m); k > f {
				k = f
			}
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed + int64(100*n+m)))
				fs, _, err := faults.ClusteredVertices(n, k, m, rng)
				if err != nil {
					t.Fatalf("ClusteredVertices: %v", err)
				}
				res, err := Latifi(n, fs, core.Config{})
				if err != nil {
					t.Fatalf("Latifi(n=%d, m=%d, seed=%d): %v", n, m, seed, err)
				}
				if res.M > m {
					t.Fatalf("n=%d: minimal cluster order %d exceeds generator order %d", n, res.M, m)
				}
				wantAtLeast := perm.Factorial(n) - perm.Factorial(m)
				if len(res.Ring) < wantAtLeast {
					t.Fatalf("Latifi(n=%d, m=%d): len %d < %d", n, m, len(res.Ring), wantAtLeast)
				}
				hchPlan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					t.Fatalf("Embed: %v", err)
				}
				hch := hchPlan.Result()
				// The guarantees differ by exactly m! - 2|Fv| (the
				// paper's advantage; negative when faults pack into a
				// tiny cluster, which is the crossover the evaluation
				// charts). Compare through the minimal cluster order the
				// baseline actually found, not the generator's m.
				gap := hch.Guarantee - res.Guarantee
				if want := perm.Factorial(res.M) - 2*fs.NumVertices(); gap != want {
					t.Errorf("n=%d m=%d: guarantee gap %d, want %d", n, m, gap, want)
				}
				if 2*fs.NumVertices() <= perm.Factorial(res.M) && hch.Len() < len(res.Ring) {
					t.Errorf("n=%d m=%d: paper ring %d shorter than clustered ring %d despite dominance condition",
						n, m, hch.Len(), len(res.Ring))
				}
			}
		}
	}
}

// TestLatifiSingleFault exercises the m < 2 widening.
func TestLatifiSingleFault(t *testing.T) {
	fs := faults.NewSet(6)
	fs.AddVertex(perm.Pack(perm.MustParse("213456")))
	res, err := Latifi(6, fs, core.Config{})
	if err != nil {
		t.Fatalf("Latifi: %v", err)
	}
	if res.M != 2 {
		t.Fatalf("M = %d, want 2", res.M)
	}
	if want := perm.Factorial(6) - 2; len(res.Ring) < want {
		t.Fatalf("len %d < %d", len(res.Ring), want)
	}
}

// TestMinimalCluster checks minimality directly.
func TestMinimalCluster(t *testing.T) {
	vs := []perm.Code{
		perm.Pack(perm.MustParse("123456")),
		perm.Pack(perm.MustParse("213456")),
		perm.Pack(perm.MustParse("312456")),
	}
	p, m := MinimalCluster(6, vs)
	if m != 3 {
		t.Fatalf("m = %d, want 3 (pattern %v)", m, p)
	}
	for _, v := range vs {
		if !p.Contains(v) {
			t.Fatalf("cluster %v misses %s", p, v.StringN(6))
		}
	}
}

func TestTsengValidation(t *testing.T) {
	if _, err := Tseng(3, nil, core.Config{}); err == nil {
		t.Error("n=3 accepted")
	}
	rng := rand.New(rand.NewSource(99))
	over := faults.RandomVertices(6, 4, rng) // budget 3
	if _, err := Tseng(6, over, core.Config{}); err == nil {
		t.Error("over-budget fault set accepted")
	}
	// Edge faults keep the ring Hamiltonian under the baseline too.
	es := faults.RandomEdges(6, 3, rng)
	res, err := Tseng(6, es, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ring) != perm.Factorial(6) {
		t.Fatalf("edge-fault Tseng ring %d", len(res.Ring))
	}
}

func TestLatifiValidation(t *testing.T) {
	if _, err := Latifi(4, nil, core.Config{}); err == nil {
		t.Error("n=4 accepted")
	}
	if _, err := Latifi(6, faults.NewSet(6), core.Config{}); err == nil {
		t.Error("empty fault set accepted")
	}
	rng := rand.New(rand.NewSource(98))
	es := faults.RandomEdges(6, 2, rng)
	if _, err := Latifi(6, es, core.Config{}); err == nil {
		t.Error("edge faults accepted")
	}
}

func TestLatifiSpreadFaultsVacuous(t *testing.T) {
	// Faults that agree at no position >= 2 make m = n and the bound
	// vacuous; the baseline must refuse rather than return an empty
	// ring.
	fs := faults.NewSet(6)
	fs.AddVertexString("213456")
	fs.AddVertexString("345621") // disagrees at every position >= 2
	vs := fs.Vertices()
	agree := false
	for i := 2; i <= 6; i++ {
		if vs[0].Symbol(i) == vs[1].Symbol(i) {
			agree = true
		}
	}
	if agree {
		t.Skip("test vector unexpectedly clusters; adjust vectors")
	}
	if _, err := Latifi(6, fs, core.Config{}); !errors.Is(err, ErrNoCluster) {
		t.Fatalf("want ErrNoCluster, got %v", err)
	}
}

func TestTsengFaultyBlocksLoseFour(t *testing.T) {
	// The measured ring normally realizes exactly n!-4|Fv|: every faulty
	// block is pinned to a 20-vertex path.
	rng := rand.New(rand.NewSource(97))
	hits := 0
	for trial := 0; trial < 10; trial++ {
		fs := faults.RandomVertices(6, 3, rng)
		res, err := Tseng(6, fs, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Ring) == res.Guarantee {
			hits++
		}
		if len(res.Ring) < res.Guarantee {
			t.Fatalf("trial %d under guarantee", trial)
		}
	}
	if hits < 8 {
		t.Fatalf("only %d/10 trials realized the pinned bound", hits)
	}
}
