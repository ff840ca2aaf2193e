package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// TestBestEffortRelaxedDiscipline drives the over-budget ring path that
// must drop the Lemma 3 discipline: S_5 with 4 faults can have three or
// more faulty blocks among five, which no cycle can keep non-adjacent.
func TestBestEffortRelaxedDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for seed := 0; seed < 10; seed++ {
		fs := faults.RandomVertices(5, 4, rng)
		plan, err := Embed(5, fs, Config{BestEffort: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := plan.Result()
		if res.Guaranteed {
			t.Fatal("over-budget result guaranteed")
		}
		if err := check.Ring(star.New(5), plan.Ring(), fs, 0); err != nil {
			t.Fatal(err)
		}
		// The bipartite ceiling still binds.
		if res.Len() > check.BipartiteUpperBound(5, fs) {
			t.Fatalf("seed %d: ring %d exceeds the ceiling", seed, res.Len())
		}
	}
}

// TestBestEffortPathBeyondBudget exercises the chain pipeline's
// degraded block targets.
func TestBestEffortPathBeyondBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	n := 6
	for seed := 0; seed < 5; seed++ {
		fs := faults.RandomVertices(n, 5, rng) // budget is 3
		var s, tt perm.Code
		for {
			s = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			tt = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if s != tt && !fs.HasVertex(s) && !fs.HasVertex(tt) {
				break
			}
		}
		plan, err := EmbedPath(n, fs, s, tt, Config{BestEffort: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if plan.Result().Guaranteed {
			t.Fatal("over-budget path guaranteed")
		}
		if err := check.Path(star.New(n), plan.Ring(), fs, s, tt, 0); err != nil {
			t.Fatal(err)
		}
		// Losing more than 4 vertices per fault would indicate the
		// degraded targets are too loose.
		if plan.RingLen() < perm.Factorial(n)-4*5-2 {
			t.Fatalf("seed %d: best-effort path only %d vertices", seed, plan.RingLen())
		}
	}
}

// TestBestEffortPathStrictRejects mirrors the ring budget check.
func TestBestEffortPathStrictRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	fs := faults.RandomVertices(6, 5, rng)
	var s, tt perm.Code
	for {
		s = perm.UnrankCode(6, rng.Intn(720))
		tt = perm.UnrankCode(6, rng.Intn(720))
		if s != tt && !fs.HasVertex(s) && !fs.HasVertex(tt) {
			break
		}
	}
	if _, err := EmbedPath(6, fs, s, tt, Config{}); err == nil {
		t.Fatal("over-budget strict path accepted")
	}
}

// TestChainSingleBlockDirect covers the endpoints that come closest to
// sharing a block: S_5 neighbors across dimension 2, which agree at
// every position but 2 and so would share a block under any other
// first partition position. The first position always separates s from
// t, so their blocks sit at the two ends of a chain of five, and the
// fault-free path must still be Hamiltonian.
func TestChainSingleBlockDirect(t *testing.T) {
	n := 5
	fs := faults.NewSet(n)
	s := perm.IdentityCode(n)
	tt := s.SwapFirst(2)
	plan, err := EmbedPath(n, fs, s, tt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent endpoints, fault-free: a Hamiltonian path.
	if plan.RingLen() != perm.Factorial(n) {
		t.Fatalf("path %d", plan.RingLen())
	}
}

// TestRouteSkipsParityInfeasibleTargets pins the router's parity
// short-circuit. A path of t vertices joins ends of one parity exactly
// when t is odd, so a target the ends' parities rule out is never
// searched: asked for best effort's even targets between two ends of
// one parity, every block of a best-effort S_7 ring fails without a
// search — a faulty block skips them all, a fault-free one after the
// table refuses its 24. End to end the embed routes the ring it routed
// before the short-circuit (its digest is pinned) and searches at most
// once per faulty block, where it asked the block engine 1,205 times
// before: every even target of every failed test.
func TestRouteSkipsParityInfeasibleTargets(t *testing.T) {
	const want = "fd793f9deab7465f17deda21f5cbe056da9cdd9c4fb8cb756ccd1319f9bd7407"
	fs := faults.RandomVertices(7, 6, rand.New(rand.NewSource(1)))
	s0 := searches()
	p, err := Embed(7, fs, Config{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	searched := searches() - s0
	h := sha256.New()
	for _, v := range p.Ring() {
		fmt.Fprintln(h, v.StringN(7))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("best-effort ring has SHA-256 %s, want %s", got, want)
	}
	res := p.Result()
	t.Logf("%d faulty blocks, %d searches", res.FaultyBlocks, searched)
	if res.Guaranteed || searched > int64(res.FaultyBlocks) {
		t.Errorf("guaranteed %v, %d searches for %d faulty blocks", res.Guaranteed, searched, res.FaultyBlocks)
	}

	rt := &router{sk: p.sk, targets: func(_, vf int) []int { return blockTargets(vf, false, true) }}
	for k := 0; k < p.sk.blocks(); k++ {
		seg := p.segment(k)
		s0 := searches()
		if rt.route(k, seg[0], seg[2]) {
			t.Fatalf("block %d: an even target joined two ends of one parity", k)
		}
		if d := searches() - s0; d != 0 {
			t.Fatalf("block %d (faulty %v): %d searches for targets the ends' parity rules out", k, p.sk.holdsFault(k), d)
		}
	}
}
