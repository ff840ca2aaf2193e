package superring

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/substar"
)

func chainAnchors(t *testing.T, n int, rng *rand.Rand, fs *faults.Set) (perm.Code, perm.Code, int) {
	t.Helper()
	total := perm.Factorial(n)
	for {
		s := perm.UnrankCode(n, rng.Intn(total))
		tt := perm.UnrankCode(n, rng.Intn(total))
		if s == tt || fs.HasVertex(s) || fs.HasVertex(tt) {
			continue
		}
		for pos := 2; pos <= n; pos++ {
			if s.Symbol(pos) != tt.Symbol(pos) {
				return s, tt, pos
			}
		}
	}
}

func TestInitialChainStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 5; n <= 8; n++ {
		fs := faults.NewSet(n)
		s, tt, pos := chainAnchors(t, n, rng, fs)
		c, err := InitialChain(n, pos, s, tt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != n || c.Order() != n-1 {
			t.Fatalf("chain len=%d order=%d", c.Len(), c.Order())
		}
		if !c.At(0).Contains(s) || !c.At(c.Len()-1).Contains(tt) {
			t.Fatal("anchors misplaced")
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInitialChainRejectsAgreeingAnchors(t *testing.T) {
	s := perm.IdentityCode(5)
	tt := s.SwapFirst(3)
	// s and tt agree at position 2 (the swap touched 1 and 3).
	if _, err := InitialChain(5, 2, s, tt, Options{}); err == nil {
		t.Fatal("agreeing anchors accepted")
	}
}

func TestChainRefineKeepsAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 6; n <= 8; n++ {
		fs := faults.NewSet(n)
		s, tt, first := chainAnchors(t, n, rng, fs)
		c, err := InitialChain(n, first, s, tt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		expectedLen := n
		for pos := 2; c.Order() > 4; pos++ {
			if pos == first {
				continue
			}
			c, err = c.Refine(pos, s, tt, Options{})
			if err != nil {
				t.Fatalf("S_%d refine at %d: %v", n, pos, err)
			}
			expectedLen *= c.Order() + 1
			if c.Len() != expectedLen {
				t.Fatalf("S_%d: chain %d, want %d", n, c.Len(), expectedLen)
			}
			if !c.At(0).Contains(s) {
				t.Fatalf("S_%d: source left the head", n)
			}
			if !c.At(c.Len() - 1).Contains(tt) {
				t.Fatalf("S_%d: target left the tail", n)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if c.Order() != 4 {
			t.Fatalf("S_%d: final order %d", n, c.Order())
		}
	}
}

func TestChainRefineWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 7
	for trial := 0; trial < 5; trial++ {
		fs := faults.RandomVertices(n, faults.MaxTolerated(n), rng)
		s, tt, _ := chainAnchors(t, n, rng, fs)
		positions, _, err := fs.SeparatingPositionsSplitting(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		w := weightFor(fs)
		c, err := InitialChain(n, positions[0], s, tt, Options{FaultCount: w})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(positions); j++ {
			opts := Options{FaultCount: w}
			if j == len(positions)-1 {
				opts.SpreadFaults = true
				opts.HealthyJunctions = true
			}
			next, err := c.Refine(positions[j], s, tt, opts)
			if err != nil {
				// The anchored ends can make the strict discipline
				// unsatisfiable; the relaxed retry must then work.
				next, err = c.Refine(positions[j], s, tt, Options{FaultCount: w})
				if err != nil {
					t.Fatalf("trial %d refine %d: %v", trial, j, err)
				}
			}
			c = next
		}
		if !c.P1(w) {
			t.Fatalf("trial %d: chain violates (P1)", trial)
		}
	}
}

func TestChainCoversAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 6
	fs := faults.NewSet(n)
	s, tt, first := chainAnchors(t, n, rng, fs)
	c, err := InitialChain(n, first, s, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 2; c.Order() > 4; pos++ {
		if pos == first {
			continue
		}
		if c, err = c.Refine(pos, s, tt, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Every vertex of S_n appears in exactly one chain block.
	seen := map[perm.Code]bool{}
	for i := 0; i < c.Len(); i++ {
		for _, v := range c.At(i).Vertices(nil) {
			if seen[v] {
				t.Fatalf("vertex %s in two blocks", v.StringN(n))
			}
			seen[v] = true
		}
	}
	if len(seen) != perm.Factorial(n) {
		t.Fatalf("blocks cover %d of %d vertices", len(seen), perm.Factorial(n))
	}
}

func TestNewChainValidation(t *testing.T) {
	kids := substar.Whole(5).Partition(3)
	if _, err := NewChain(5, kids); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if _, err := NewChain(5, kids[:1]); err == nil {
		t.Fatal("single-vertex chain accepted")
	}
}
