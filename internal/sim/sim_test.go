package sim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
)

func TestBootAndCirculate(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.RingLength() != 120 {
		t.Fatalf("boot ring %d", m.RingLength())
	}
	if err := m.Circulate(3); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Laps != 3 || st.Hops != 360 {
		t.Fatalf("laps=%d hops=%d", st.Laps, st.Hops)
	}
	if st.Uptime != 360 {
		t.Fatalf("uptime %d", st.Uptime)
	}
}

func TestFailureShrinksByTwo(t *testing.T) {
	m, err := New(Config{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= faults.MaxTolerated(6); k++ {
		// Fail a processor currently on the ring.
		victim := m.Ring()[rng.Intn(m.RingLength())]
		if err := m.FailVertex(victim); err != nil {
			t.Fatal(err)
		}
		if m.RingLength() != 720-2*k {
			t.Fatalf("after %d failures: ring %d", k, m.RingLength())
		}
		if m.GuaranteedLength() != 720-2*k {
			t.Fatalf("guarantee %d", m.GuaranteedLength())
		}
		if err := m.Circulate(1); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Reembeds+st.Splices != faults.MaxTolerated(6) {
		t.Fatalf("reembeds %d + splices %d != %d", st.Reembeds, st.Splices, faults.MaxTolerated(6))
	}
	if st.Downtime == 0 {
		t.Fatal("no downtime charged")
	}
	if len(st.RingLengths) != 1+faults.MaxTolerated(6) {
		t.Fatalf("ring history %v", st.RingLengths)
	}
}

func TestFailSpareProcessorKeepsRing(t *testing.T) {
	// With one failure the ring misses 2 vertices; failing one of the
	// off-ring spares must not trigger a re-embedding.
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FailVertex(m.Ring()[0]); err != nil {
		t.Fatal(err)
	}
	onRing := make(map[perm.Code]bool, m.RingLength())
	for _, v := range m.Ring() {
		onRing[v] = true
	}
	var spare perm.Code
	found := false
	for r := 0; r < 120 && !found; r++ {
		v := perm.UnrankCode(5, r)
		if !onRing[v] && !m.plan.Faulty(v) {
			spare, found = v, true
		}
	}
	if !found {
		t.Fatal("no spare vertex")
	}
	before := m.Stats()
	if err := m.FailVertex(spare); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if after.Reembeds != before.Reembeds || after.Splices != before.Splices {
		t.Fatal("spare failure re-routed the ring")
	}
	if after.Downtime != before.Downtime {
		t.Fatal("spare failure charged downtime")
	}
	if m.Faults() != 2 {
		t.Fatalf("faults %d, want 2", m.Faults())
	}
	if err := m.Circulate(1); err != nil {
		t.Fatal(err)
	}
}

func TestTokenHolderFailure(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FailVertex(m.TokenHolder()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TokenLost != 1 {
		t.Fatalf("token lost %d", m.Stats().TokenLost)
	}
	if err := m.Circulate(1); err != nil {
		t.Fatal(err)
	}
}

func TestVisitReachesEveryProcessorOnce(t *testing.T) {
	m, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[perm.Code]int{}
	if err := m.Visit(func(v perm.Code) { seen[v]++ }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != m.RingLength() {
		t.Fatalf("visited %d of %d", len(seen), m.RingLength())
	}
	for v, k := range seen {
		if k != 1 {
			t.Fatalf("%s visited %d times", v.StringN(4), k)
		}
	}
}

func TestHaltBeyondRepair(t *testing.T) {
	// S_3 cannot survive any failure.
	m, err := New(Config{N: 3, Embed: core.Config{BestEffort: true}})
	if err != nil {
		t.Fatal(err)
	}
	err = m.FailVertex(m.Ring()[0])
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
}

func TestBestEffortBeyondBudget(t *testing.T) {
	m, err := New(Config{N: 5, Embed: core.Config{BestEffort: true}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Budget is 2; push to 4 failures.
	for k := 1; k <= 4; k++ {
		victim := m.Ring()[rng.Intn(m.RingLength())]
		if err := m.FailVertex(victim); err != nil {
			t.Fatalf("failure %d: %v", k, err)
		}
		if err := m.Circulate(1); err != nil {
			t.Fatal(err)
		}
	}
	if m.GuaranteedLength() != 0 {
		t.Fatal("guarantee should lapse beyond the budget")
	}
	if m.RingLength() < 120-2*4-4 {
		t.Fatalf("best-effort ring unreasonably short: %d", m.RingLength())
	}
}

func TestHaltWhenBudgetExhausted(t *testing.T) {
	// S_5 tolerates 2 faults; the third must halt without BestEffort.
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < faults.MaxTolerated(5); k++ {
		if err := m.FailVertex(m.Ring()[5]); err != nil {
			t.Fatalf("failure %d: %v", k+1, err)
		}
	}
	err = m.FailVertex(m.Ring()[5])
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
}

func TestRingReturnsDefensiveCopy(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Ring()
	for i := range r {
		r[i] = r[0] // clobber the caller's copy
	}
	// The machine must be unaffected: its ring still circulates over
	// real, distinct, adjacent processors.
	if err := m.Circulate(1); err != nil {
		t.Fatalf("mutating Ring()'s result corrupted the machine: %v", err)
	}
	if m.Ring()[1] == m.Ring()[0] {
		t.Fatal("machine ring was clobbered through the accessor")
	}
}

func TestSpliceKeepsTokenInPlace(t *testing.T) {
	m, err := New(Config{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Park the token in the second block, then fail an interior vertex
	// of the first: the repair splices and the holder must not move.
	for i := 0; i < 30; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	holder := m.TokenHolder()
	if err := m.FailVertex(m.Ring()[2]); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Splices != 1 || st.Reembeds != 0 {
		t.Fatalf("expected one splice, got %+v", st)
	}
	if m.TokenHolder() != holder {
		t.Fatal("splice of an unrelated block moved the token holder")
	}
	if err := m.Circulate(1); err != nil {
		t.Fatal(err)
	}
}

func TestSpliceTokenHolderLoss(t *testing.T) {
	m, err := New(Config{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Walk into the interior of the third block and kill the holder:
	// the repair splices and the token restarts at the repaired
	// segment's head instead of position 0.
	for i := 0; i < 50; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	victim := m.TokenHolder()
	if err := m.FailVertex(victim); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.TokenLost != 1 {
		t.Fatalf("token lost %d", st.TokenLost)
	}
	if st.Splices != 1 || st.Reembeds != 0 {
		t.Fatalf("expected one splice, got %+v", st)
	}
	if m.TokenHolder() == victim {
		t.Fatal("token still on the failed processor")
	}
	if err := m.Circulate(1); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, []int) {
		m, err := New(Config{N: 5})
		if err != nil {
			t.Fatal(err)
		}
		m.FailVertex(m.Ring()[7])
		m.Circulate(2)
		m.FailVertex(m.Ring()[3])
		m.Circulate(1)
		return m.Clock(), m.Stats().RingLengths
	}
	c1, h1 := run()
	c2, h2 := run()
	if c1 != c2 || len(h1) != len(h2) {
		t.Fatal("simulation not deterministic")
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("histories differ")
		}
	}
}

func BenchmarkMachineLap(b *testing.B) {
	m, err := New(Config{N: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Circulate(1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.RingLength()), "ringlen")
}

func BenchmarkMachineFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(Config{N: 6})
		if err != nil {
			b.Fatal(err)
		}
		victim := m.Ring()[42]
		b.StartTimer()
		if err := m.FailVertex(victim); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunCampaign(t *testing.T) {
	rep, err := RunCampaign(CampaignConfig{
		Machine:     Config{N: 6, HopCost: 1, ReembedCostPerBlock: 4},
		Failures:    3,
		LapsBetween: 2,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GuaranteeHeld {
		t.Fatal("guarantee broken within budget")
	}
	if rep.FinalRing != 714 {
		t.Fatalf("final ring %d", rep.FinalRing)
	}
	if rep.Laps != 8 {
		t.Fatalf("laps %d", rep.Laps)
	}
	if rep.Availability <= 0 || rep.Availability >= 1 {
		t.Fatalf("availability %f", rep.Availability)
	}
	// Determinism.
	rep2, err := RunCampaign(CampaignConfig{
		Machine:     Config{N: 6, HopCost: 1, ReembedCostPerBlock: 4},
		Failures:    3,
		LapsBetween: 2,
		Seed:        5,
	})
	if err != nil || rep2.Clock != rep.Clock || rep2.FinalRing != rep.FinalRing {
		t.Fatal("campaign not deterministic")
	}
}

func TestRunCampaignBeyondBudgetNeedsBestEffort(t *testing.T) {
	_, err := RunCampaign(CampaignConfig{
		Machine:  Config{N: 5},
		Failures: 4, // budget is 2
		Seed:     1,
	})
	if err == nil {
		t.Fatal("over-budget campaign without BestEffort succeeded")
	}
}
