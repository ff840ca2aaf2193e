package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/star"
)

// planOn embeds a fault-free plan for S_n.
func planOn(t *testing.T, n int, cfg Config) *Plan {
	t.Helper()
	e, err := NewEmbedder(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Embed(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// interiorOf returns a vertex of block k that is neither its entry nor
// its exit junction endpoint.
func interiorOf(t *testing.T, p *Plan, k int) perm.Code {
	t.Helper()
	for _, v := range p.segment(k) {
		if v != p.sk.entry[k] && v != p.sk.exit(k) {
			return v
		}
	}
	t.Fatalf("block %d has no interior vertex", k)
	return 0
}

// verifyPlan re-checks the plan's ring against the paper bound.
func verifyPlan(t *testing.T, p *Plan) {
	t.Helper()
	res := p.Result()
	minLen := 0
	if res.Guaranteed {
		minLen = res.Guarantee
	}
	if _, err := check.RingStream(star.New(p.N()), p.Cursor().Next, p.fs, minLen); err != nil {
		t.Fatalf("plan fails full verification: %v", err)
	}
}

func TestRepairSpliceFastPath(t *testing.T) {
	p := planOn(t, 6, Config{})
	full := p.RingLen()
	v := interiorOf(t, p, 0)
	if !p.CanSplice(v) {
		t.Fatalf("interior vertex of a healthy block must be spliceable")
	}
	rep, err := p.Repair(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairSplice {
		t.Fatalf("outcome %v, want splice", rep.Outcome)
	}
	if rep.Block != 0 || rep.SegmentStart != 0 || rep.SegmentOldLen != blockOrder {
		t.Fatalf("report frames segment %d+%d of block %d", rep.SegmentStart, rep.SegmentOldLen, rep.Block)
	}
	if rep.BlocksRerouted != 1 {
		t.Fatalf("splice re-routed %d blocks", rep.BlocksRerouted)
	}
	if rep.OldLen != full || rep.NewLen != full-2 || p.RingLen() != full-2 {
		t.Fatalf("lengths %d -> %d, want %d -> %d", rep.OldLen, rep.NewLen, full, full-2)
	}
	if got, want := p.Result().Guarantee, perm.Factorial(6)-2; got != want {
		t.Fatalf("guarantee %d, want %d", got, want)
	}
	if p.OnRing(v) || !p.Faulty(v) {
		t.Fatal("repaired vertex still looks healthy")
	}
	verifyPlan(t, p)
}

func TestRepairJunctionVertexRebuilds(t *testing.T) {
	p := planOn(t, 6, Config{})
	v := p.sk.entry[0]
	if p.CanSplice(v) {
		t.Fatal("junction endpoint must not be spliceable ((P3))")
	}
	rep, err := p.Repair(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairRebuild {
		t.Fatalf("outcome %v, want rebuild", rep.Outcome)
	}
	if rep.BlocksRerouted != p.Result().Blocks {
		t.Fatalf("rebuild charged %d blocks, want %d", rep.BlocksRerouted, p.Result().Blocks)
	}
	verifyPlan(t, p)
}

func TestRepairSecondFaultSameBlockRebuilds(t *testing.T) {
	p := planOn(t, 6, Config{})
	if rep, err := p.Repair(interiorOf(t, p, 0)); err != nil || rep.Outcome != RepairSplice {
		t.Fatalf("setup splice: %v %v", rep.Outcome, err)
	}
	// A second fault in the now-faulty block breaks (P1) for the
	// existing separation; the skeleton cannot absorb it.
	v := interiorOf(t, p, 0)
	if p.CanSplice(v) {
		t.Fatal("second fault in a block must not be spliceable ((P1))")
	}
	rep, err := p.Repair(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairRebuild {
		t.Fatalf("outcome %v, want rebuild", rep.Outcome)
	}
	verifyPlan(t, p)
}

func TestRepairOffRingAvoided(t *testing.T) {
	p := planOn(t, 6, Config{})
	if rep, err := p.Repair(interiorOf(t, p, 0)); err != nil || rep.Outcome != RepairSplice {
		t.Fatalf("setup splice: %v %v", rep.Outcome, err)
	}
	// The spliced block shed two vertices: its fault and one healthy
	// casualty. Failing the casualty must not disturb the ring.
	var spare perm.Code
	found := false
	block := pathsearch.BlockAt(p.sk.entry[0], p.sk.free)
	for idx := uint8(0); idx < blockOrder; idx++ {
		v := block.FromCanon(idx)
		if !p.Faulty(v) && !p.OnRing(v) {
			spare, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("spliced block has no healthy off-ring vertex")
	}
	if p.CanSplice(spare) {
		t.Fatal("off-ring vertex must not be spliceable")
	}
	length := p.RingLen()
	rep, err := p.Repair(spare)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairAvoided {
		t.Fatalf("outcome %v, want avoided", rep.Outcome)
	}
	if rep.BlocksRerouted != 0 || p.RingLen() != length {
		t.Fatalf("avoided repair touched the ring (%d blocks, len %d -> %d)",
			rep.BlocksRerouted, length, p.RingLen())
	}
	if !p.Faulty(spare) {
		t.Fatal("avoided fault not recorded")
	}
	// Guarantee dropped by 2 but the unchanged ring still clears it.
	verifyPlan(t, p)
}

func TestRepairNoopOnKnownFault(t *testing.T) {
	p := planOn(t, 6, Config{})
	v := interiorOf(t, p, 0)
	if _, err := p.Repair(v); err != nil {
		t.Fatal(err)
	}
	length := p.RingLen()
	faultsBefore := p.Result().VertexFaults
	rep, err := p.Repair(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairNoop {
		t.Fatalf("outcome %v, want noop", rep.Outcome)
	}
	if p.RingLen() != length || p.Result().VertexFaults != faultsBefore {
		t.Fatal("noop repair mutated the plan")
	}
}

func TestRepairBudgetExceeded(t *testing.T) {
	n := 6
	p := planOn(t, n, Config{})
	first := p.RingAt(1)
	for i := 0; i < faults.MaxTolerated(n); i++ {
		if _, err := p.Repair(p.RingAt(1)); err != nil {
			t.Fatal(err)
		}
	}
	length := p.RingLen()
	nv := p.Result().VertexFaults
	v := p.RingAt(1)
	_, err := p.Repair(v)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if p.Faulty(v) || p.RingLen() != length || p.Result().VertexFaults != nv {
		t.Fatal("over-budget repair mutated the plan")
	}
	// The plan is not poisoned: known faults still no-op cleanly.
	rep, err := p.Repair(first)
	if err != nil || rep.Outcome != RepairNoop {
		t.Fatalf("post-budget noop: %v %v", rep.Outcome, err)
	}
}

func TestRepairBestEffortBeyondBudget(t *testing.T) {
	n := 6
	p := planOn(t, n, Config{BestEffort: true})
	for i := 0; i <= faults.MaxTolerated(n); i++ {
		rep, err := p.Repair(p.RingAt(1))
		if err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
		if rep.Outcome == RepairNoop {
			t.Fatalf("fault %d: picked a known fault", i)
		}
	}
	if p.Result().Guaranteed {
		t.Fatal("beyond-budget plan still claims the guarantee")
	}
	verifyPlan(t, p) // minLen 0: healthiness only
}

func TestRepairVerifyRepairsFlag(t *testing.T) {
	p := planOn(t, 6, Config{VerifyRepairs: true})
	rep, err := p.Repair(interiorOf(t, p, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairSplice {
		t.Fatalf("outcome %v, want splice", rep.Outcome)
	}
}

func TestRepairSmallNRebuilds(t *testing.T) {
	p := planOn(t, 4, Config{})
	v := p.RingAt(3)
	if p.CanSplice(v) {
		t.Fatal("n=4 has no skeleton to splice")
	}
	rep, err := p.Repair(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairRebuild {
		t.Fatalf("outcome %v, want rebuild", rep.Outcome)
	}
	if p.RingLen() != perm.Factorial(4)-2 {
		t.Fatalf("ring %d after one fault in S_4", p.RingLen())
	}
	verifyPlan(t, p)
}

func TestPlanRingIsDefensiveCopy(t *testing.T) {
	p := planOn(t, 5, Config{})
	ring := p.Ring()
	ring[0], ring[1] = ring[1], ring[0]
	if p.RingAt(0) == ring[0] && p.RingAt(1) == ring[1] {
		t.Fatal("mutating Ring()'s result reached the plan")
	}
	verifyPlan(t, p)
}

// TestRepairEquivalence is the acceptance criterion: over randomized
// fault campaigns, Repair-maintained rings satisfy exactly the bounds a
// cold embedding of the same fault set does — full stream-verified health
// with minLen = n! - 2|Fv| — and the splice fast path is actually
// exercised.
func TestRepairEquivalence(t *testing.T) {
	ns := []int{6, 7}
	if !testing.Short() {
		ns = append(ns, 8)
	}
	for _, n := range ns {
		splices := 0
		for seed := int64(0); seed < 3; seed++ {
			e, err := NewEmbedder(n, Config{})
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.Embed(nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < faults.MaxTolerated(n); i++ {
				v := p.RingAt(rng.Intn(p.RingLen()))
				rep, err := p.Repair(v)
				if err != nil {
					t.Fatalf("n=%d seed=%d fault=%d: %v", n, seed, i, err)
				}
				if rep.Outcome == RepairSplice {
					splices++
				}
				res := p.Result()
				if !res.Guaranteed {
					t.Fatalf("n=%d: guarantee lost within budget", n)
				}
				if _, err := check.RingStream(star.New(n), p.Cursor().Next, p.fs, res.Guarantee); err != nil {
					t.Fatalf("n=%d seed=%d after fault %d (%v): %v", n, seed, i, rep.Outcome, err)
				}
				coldPlan, err := Embed(n, p.fs, Config{})
				if err != nil {
					t.Fatalf("n=%d seed=%d: cold embed: %v", n, seed, err)
				}
				cold := coldPlan.Result()
				if cold.Guarantee != res.Guarantee {
					t.Fatalf("guarantee diverged: repair %d, cold %d", res.Guarantee, cold.Guarantee)
				}
				if res.Len() < res.Guarantee || cold.Len() < cold.Guarantee {
					t.Fatalf("length under guarantee: repair %d, cold %d, bound %d",
						res.Len(), cold.Len(), res.Guarantee)
				}
			}
		}
		if splices == 0 {
			t.Errorf("n=%d: campaigns never exercised the splice fast path", n)
		}
	}
}

// BenchmarkRepairSplice is the root package's BenchmarkRepair splice
// loop in this package's test binary: Plan.Repair at n = 6..11 on an
// on-ring vertex the fast path accepts, with a fresh plan embedded
// outside the timer whenever n−3 splices use up the fault budget (time
// the n >= 9 legs with a fixed count, e.g. -benchtime 200x). The two
// binaries lay the splice out differently, so a leg that moves in one
// only measured the layout.
func BenchmarkRepairSplice(b *testing.B) {
	for n := 6; n <= 11; n++ {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, err := NewEmbedder(n, Config{})
			if err != nil {
				b.Fatal(err)
			}
			var p *Plan
			used, budget := 0, faults.MaxTolerated(n)
			rng := rand.New(rand.NewSource(int64(n) * 41))
			// next returns an on-ring vertex the fast path accepts,
			// embedding a fresh plan when the budget is used up; fresh
			// plans always have spliceable blocks.
			next := func() perm.Code {
				b.StopTimer()
				defer b.StartTimer()
				if p == nil || used == budget {
					if p, err = e.Embed(nil); err != nil {
						b.Fatal(err)
					}
					used = 0
				}
				for {
					if v := p.RingAt(rng.Intn(p.RingLen())); p.CanSplice(v) {
						return v
					}
				}
			}
			v := next()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := p.Repair(v)
				if err != nil || rep.Outcome != RepairSplice {
					b.Fatalf("iteration %d: outcome %v, %v; want a splice", i, rep.Outcome, err)
				}
				used++
				v = next()
			}
		})
	}
}
