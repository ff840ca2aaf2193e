package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

func randomHealthyPair(rng *rand.Rand, n int, fs *faults.Set) (perm.Code, perm.Code) {
	total := perm.Factorial(n)
	for {
		s := perm.UnrankCode(n, rng.Intn(total))
		t := perm.UnrankCode(n, rng.Intn(total))
		if s != t && !fs.HasVertex(s) && !fs.HasVertex(t) {
			return s, t
		}
	}
}

// TestEmbedPathGuarantees sweeps dimensions, fault counts and endpoint
// parities: every path must meet n!-2|Fv| (opposite sides) or
// n!-2|Fv|-1 (same side) and verify end to end.
func TestEmbedPathGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 5; n <= 7; n++ {
		g := star.New(n)
		for k := 0; k <= faults.MaxTolerated(n); k++ {
			for trial := 0; trial < 8; trial++ {
				fs := faults.RandomVertices(n, k, rng)
				s, tt := randomHealthyPair(rng, n, fs)
				plan, err := EmbedPath(n, fs, s, tt, Config{})
				if err != nil {
					t.Fatalf("n=%d k=%d trial=%d: %v", n, k, trial, err)
				}
				want := perm.Factorial(n) - 2*k
				if s.Parity(n) == tt.Parity(n) {
					want--
				}
				if plan.RingLen() < want {
					t.Fatalf("n=%d k=%d: path %d < %d", n, k, plan.RingLen(), want)
				}
				path := plan.Ring()
				if path[0] != s || path[len(path)-1] != tt {
					t.Fatal("endpoints wrong")
				}
				if err := check.Path(g, path, fs, s, tt, want); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestEmbedPathUpgradeSamesideFault: same-side endpoints with a fault
// on the opposite side let one block shed only its fault, beating the
// base guarantee by two (n!-2|Fv|+1 total).
func TestEmbedPathUpgrade(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 6
	hits := 0
	for trial := 0; trial < 20 && hits < 5; trial++ {
		fs := faults.RandomVertices(n, 2, rng)
		s, tt := randomHealthyPair(rng, n, fs)
		if s.Parity(n) != tt.Parity(n) {
			continue
		}
		oppositeFault := false
		for _, f := range fs.Vertices() {
			if f.Parity(n) != s.Parity(n) {
				oppositeFault = true
			}
		}
		if !oppositeFault {
			continue
		}
		plan, err := EmbedPath(n, fs, s, tt, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.RingLen() >= perm.Factorial(n)-2*2+1 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("upgrade never fired across 20 same-side instances")
	}
}

func TestEmbedPathSmallDimensions(t *testing.T) {
	// n = 3: longer arc of the hexagon.
	s := perm.IdentityCode(3)
	tt := s.SwapFirst(2)
	plan, err := EmbedPath(3, nil, s, tt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.RingLen() != 6 {
		t.Fatalf("S_3 adjacent pair: path %d, want 6", plan.RingLen())
	}

	// n = 4 with one fault: exact block search.
	fs := faults.NewSet(4)
	fs.AddVertexString("4321")
	s4 := perm.IdentityCode(4)
	t4 := s4.SwapFirst(3)
	plan4, err := EmbedPath(4, fs, s4, t4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan4.RingLen() < 22 {
		t.Fatalf("S_4: path %d", plan4.RingLen())
	}
}

func TestEmbedPathEndpointValidation(t *testing.T) {
	n := 5
	fs := faults.NewSet(n)
	fs.AddVertexString("21345")
	s := perm.IdentityCode(n)

	if _, err := EmbedPath(n, fs, s, s, Config{}); !errors.Is(err, ErrBadEndpoints) {
		t.Fatalf("s == t: %v", err)
	}
	faulty := perm.Pack(perm.MustParse("21345"))
	if _, err := EmbedPath(n, fs, s, faulty, Config{}); !errors.Is(err, ErrBadEndpoints) {
		t.Fatalf("faulty endpoint: %v", err)
	}
	if _, err := EmbedPath(n, fs, s, perm.None, Config{}); !errors.Is(err, ErrBadEndpoints) {
		t.Fatalf("invalid endpoint: %v", err)
	}
}

func TestEmbedPathMixedFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 6
	for trial := 0; trial < 10; trial++ {
		fs := faults.Mixed(n, 1, 2, rng)
		s, tt := randomHealthyPair(rng, n, fs)
		plan, err := EmbedPath(n, fs, s, tt, Config{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := perm.Factorial(n) - 2
		if s.Parity(n) == tt.Parity(n) {
			want--
		}
		if plan.RingLen() < want {
			t.Fatalf("trial %d: path %d < %d", trial, plan.RingLen(), want)
		}
	}
}

// TestEmbedPathAdjacentEndpoints closes the loop with the ring result:
// a path between adjacent endpoints plus the closing edge is a ring, so
// its length must match Theorem 1's bound.
func TestEmbedPathAdjacentEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 6
	g := star.New(n)
	for trial := 0; trial < 5; trial++ {
		fs := faults.RandomVertices(n, 3, rng)
		var s, tt perm.Code
		for {
			s, _ = randomHealthyPair(rng, n, fs)
			tt = s.SwapFirst(2 + rng.Intn(n-1))
			if !fs.HasVertex(tt) {
				break
			}
		}
		plan, err := EmbedPath(n, fs, s, tt, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.RingLen() < perm.Factorial(n)-2*3 {
			t.Fatalf("adjacent endpoints: path %d", plan.RingLen())
		}
		// Close it into a verified ring.
		if !g.Adjacent(s, tt) {
			t.Fatal("test setup broken")
		}
		if err := check.Ring(g, plan.Ring(), fs, plan.RingLen()); err != nil {
			t.Fatalf("closed path is not a ring: %v", err)
		}
	}
}

// TestEmbedPathExhaustiveS5Singles: every fault position and a spread
// of endpoint pairs in S_5.
func TestEmbedPathExhaustiveS5Singles(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	n := 5
	g := star.New(n)
	rng := rand.New(rand.NewSource(35))
	for r := 0; r < 120; r += 7 {
		fs := faults.NewSet(n)
		f := perm.UnrankCode(n, r)
		fs.AddVertex(f)
		for trial := 0; trial < 6; trial++ {
			s, tt := randomHealthyPair(rng, n, fs)
			plan, err := EmbedPath(n, fs, s, tt, Config{})
			if err != nil {
				t.Fatalf("fault %d, %s->%s: %v", r, s.StringN(n), tt.StringN(n), err)
			}
			want := 118
			if s.Parity(n) == tt.Parity(n) {
				want--
			}
			if plan.RingLen() < want {
				t.Fatalf("fault %d: path %d < %d", r, plan.RingLen(), want)
			}
			if err := check.Path(g, plan.Ring(), fs, s, tt, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPathPlanNotRepairable: a path plan refuses Repair and RepairOp
// and reports no splice, and none of them touches its path or faults.
func TestPathPlanNotRepairable(t *testing.T) {
	n := 6
	rng := rand.New(rand.NewSource(36))
	fs := faults.RandomVertices(n, 2, rng)
	s, tt := randomHealthyPair(rng, n, fs)
	plan, err := EmbedPath(n, fs, s, tt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path, length := plan.Ring(), plan.RingLen()
	for _, v := range []perm.Code{path[len(path)/2], path[1], fs.Vertices()[0]} {
		if plan.CanSplice(v) {
			t.Errorf("CanSplice(%s) on a path plan", v.StringN(n))
		}
		if _, err := plan.Repair(v); err == nil {
			t.Errorf("Repair(%s) on a path plan succeeded", v.StringN(n))
		}
		if _, err := plan.RepairOp(nil, v); err == nil {
			t.Errorf("RepairOp(%s) on a path plan succeeded", v.StringN(n))
		}
	}
	if plan.RingLen() != length || !slices.Equal(plan.Ring(), path) {
		t.Fatalf("path changed: %d vertices, was %d", plan.RingLen(), length)
	}
	if got := plan.Faults().Vertices(); !slices.Equal(got, fs.Vertices()) {
		t.Fatalf("faults changed: %v, was %v", got, fs.Vertices())
	}
}
