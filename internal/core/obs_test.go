package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/pathsearch"
)

// TestEmbedMetrics embeds a ring and a path, each with a live
// registry, and checks that every advertised metric materializes:
// per-phase durations, the junction backtrack counter and the
// routed-block count. Each shape records the superring's initial span
// once.
func TestEmbedMetrics(t *testing.T) {
	for _, path := range []bool{false, true} {
		reg := obs.NewRegistry()
		obs.NewFlightRecorder(reg, 64, nil, obs.LevelDebug)
		rng := rand.New(rand.NewSource(7))
		fs := faults.RandomVertices(6, 3, rng)
		var plan *Plan
		var err error
		if path {
			s, tt := randomHealthyPair(rng, 6, fs)
			plan, err = EmbedPath(6, fs, s, tt, Config{Obs: reg})
		} else {
			plan, err = Embed(6, fs, Config{Obs: reg})
		}
		if err != nil {
			t.Fatalf("path %v: %v", path, err)
		}
		res := plan.Result()

		snap := reg.Snapshot()
		for _, phase := range []string{
			"core.phase.total", "core.phase.separation", "core.phase.build_r4",
			"core.phase.blocks", "core.phase.junction", "core.phase.verify", "core.phase.stream_emit",
			"superring.phase.initial", "superring.phase.refine",
		} {
			if snap.Histograms[phase].Count == 0 {
				t.Errorf("path %v: phase %s not recorded; snapshot %+v", path, phase, snap.Histograms)
			}
		}
		if got := snap.Histograms["superring.phase.initial"].Count; got != 1 {
			t.Errorf("path %v: superring.phase.initial recorded %d times, want 1", path, got)
		}
		for _, counter := range []string{
			"core.junction.backtracks", "core.route.blocks",
			"superring.junction.backtracks",
		} {
			if _, ok := snap.Counters[counter]; !ok {
				t.Errorf("path %v: counter %s missing from snapshot", path, counter)
			}
		}
		if got := snap.Counters["core.route.blocks"]; got != int64(res.Blocks) {
			t.Errorf("path %v: core.route.blocks = %d, want %d", path, got, res.Blocks)
		}
		if len(snap.Events) == 0 {
			t.Errorf("path %v: no span events reached the flight recorder", path)
		}
		// The labeled families materialize with the run's dimension: three
		// vertex faults on S_6 is exactly the paper's budget, so the embed
		// completes in guaranteed mode.
		labeled := `core.embed.completed{mode="guaranteed",n="6"}`
		if got := snap.Counters[labeled]; got != 1 {
			t.Errorf("path %v: %s = %d, want 1; counters %+v", path, labeled, got, snap.Counters)
		}
		// No two call sites declare one name as different kinds or keys.
		if errs := reg.VecErrors(); len(errs) != 0 {
			t.Errorf("path %v: registry errors: %v", path, errs)
		}
	}
}

// searches reads the process's count of S4 block searches, the
// queries neither of pathsearch's step-word tables answers.
func searches() int64 {
	_, n, _ := pathsearch.Canon.CacheStats()
	return n
}

// TestStrictRunsNoSearch pins that the paper's algorithm asks the
// block engine only the two queries its committed tables answer — a
// fault-free block's 24-vertex path and Lemma 4's 22-vertex detour
// around a block's one faulty vertex — so it runs no search: not in a
// ring embed at n = 5..9 with |Fv| = n−3 random vertex faults, nor in
// any splice of a repair sequence from a fault-free plan up to the
// budget. A path between ends of one parity, whose odd block target no
// table holds, and a best-effort embed past the budget, whose blocks
// with two faults no table holds, do search.
func TestStrictRunsNoSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 5; n <= 9; n++ {
		s0 := searches()
		if _, err := Embed(n, faults.RandomVertices(n, n-3, rng), Config{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := searches() - s0; d != 0 {
			t.Errorf("n=%d: strict embed with %d vertex faults ran %d searches", n, n-3, d)
		}

		p, err := Embed(n, nil, Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for p.Result().VertexFaults < faults.MaxTolerated(n) {
			v := p.RingAt(rng.Intn(p.RingLen()))
			if !p.CanSplice(v) {
				continue
			}
			s0 := searches()
			rep, err := p.Repair(v)
			if err != nil || rep.Outcome != RepairSplice {
				t.Fatalf("n=%d: repair of %s: outcome %v, %v", n, v.StringN(n), rep.Outcome, err)
			}
			if d := searches() - s0; d != 0 {
				t.Errorf("n=%d: splice of fault %d ran %d searches", n, p.Result().VertexFaults, d)
			}
		}
	}

	fs := faults.RandomVertices(7, 4, rng)
	s, tt := randomHealthyPair(rng, 7, fs)
	for s.Parity(7) != tt.Parity(7) {
		s, tt = randomHealthyPair(rng, 7, fs)
	}
	s0 := searches()
	if _, err := EmbedPath(7, fs, s, tt, Config{}); err != nil {
		t.Fatal(err)
	}
	if searches() == s0 {
		t.Error("a path between ends of one parity ran no search")
	}
	// Six faults among the five S4 blocks of S_5: one block holds two.
	s0 = searches()
	if _, err := Embed(5, faults.RandomVertices(5, 6, rng), Config{BestEffort: true}); err != nil {
		t.Fatal(err)
	}
	if searches() == s0 {
		t.Error("a best-effort embed past the budget ran no search")
	}
}

// TestPhaseCoverage pins the embed's phase attribution: the top-level
// phases — separation, build_r4, blocks, junction and verify — account
// for at least 95% of core.phase.total over a few S_8 embeds, rings and
// paths alike, so a slow embed decomposes into named phases from its
// spans alone.
func TestPhaseCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("embeds S_8")
	}
	for _, path := range []bool{false, true} {
		reg := obs.NewRegistry()
		e, err := NewEmbedder(8, Config{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5; i++ {
			fs := faults.RandomVertices(8, 5, rng)
			if path {
				s, tt := randomHealthyPair(rng, 8, fs)
				_, err = EmbedPath(8, fs, s, tt, Config{Obs: reg})
			} else {
				_, err = e.Embed(fs)
			}
			if err != nil {
				t.Fatalf("path %v: %v", path, err)
			}
		}
		sum := func(name string) int64 { return reg.Histogram(name).Stats().SumNS }
		var covered int64
		for _, phase := range []string{"separation", "build_r4", "blocks", "junction", "verify"} {
			covered += sum("core.phase." + phase)
		}
		total := sum("core.phase.total")
		if total == 0 {
			t.Fatalf("path %v: no core.phase.total recorded", path)
		}
		share := float64(covered) / float64(total)
		t.Logf("path %v: phases cover %.1f%% of core.phase.total (%d of %d ns)", path, 100*share, covered, total)
		if share < 0.95 {
			t.Errorf("path %v: top-level phases cover %.1f%% of core.phase.total, want >= 95%%", path, 100*share)
		}
	}
}

// TestRepairMetricsLabeled drives one splice repair and checks the
// labeled outcome family materializes alongside the flat counter.
func TestRepairMetricsLabeled(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEmbedder(6, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Embed(faults.NewSet(6))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Repair(p.Ring()[0])
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[RepairOutcome]string{
		RepairSplice:  `core.repair.outcome{n="6",outcome="splices"}`,
		RepairRebuild: `core.repair.outcome{n="6",outcome="rebuilds"}`,
		RepairAvoided: `core.repair.outcome{n="6",outcome="avoided"}`,
	}[rep.Outcome]
	if want == "" {
		t.Fatalf("unexpected outcome %v", rep.Outcome)
	}
	if got := snap.Counters[want]; got != 1 {
		t.Errorf("%s = %d, want 1; counters %+v", want, got, snap.Counters)
	}
}

// TestEmbedMetricsConcurrent shares one registry between concurrent
// embeddings; under the ci.sh race leg this certifies the
// instrumentation is data-race free end to end.
func TestEmbedMetricsConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	obs.NewFlightRecorder(reg, 256, nil, obs.LevelDebug)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			fs := faults.RandomVertices(5, 2, rng)
			_, errs[i] = Embed(5, fs, Config{Obs: reg})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("embed %d: %v", i, err)
		}
	}
	if got := reg.Histogram("core.phase.total").Stats().Count; got != int64(len(errs)) {
		t.Errorf("core.phase.total count = %d, want %d", got, len(errs))
	}
}

// TestObsDisabledAllocs proves the disabled instrumentation path of the
// routing run allocates nothing: with a nil instr every hook is a nil
// test, and a nil CounterVec resolves label sets for free.
func TestObsDisabledAllocs(t *testing.T) {
	var in *instr
	var vec *obs.CounterVec
	if allocs := testing.AllocsPerRun(1000, func() {
		in.junctionBacktrack()
		in.blocksRouted(1)
		in.span("core.phase.junction").End()
		in.repair("splices")
		in.embedCompleted(true)
		vec.With("n", "6", "mode", "guaranteed").Inc()
	}); allocs != 0 {
		t.Errorf("disabled hooks allocate %.1f times per block", allocs)
	}
}

// BenchmarkObsDisabled measures the per-step cost of the disabled
// instrumentation path — the hook the junction search executes per
// backtrack, plus a disabled runtime sampler (the
// state every uninstrumented run carries now that prof.RuntimeSampler
// exists) and a disabled labeled-family lookup (CounterVec.With on a
// nil vec must not heap-allocate its key/value pairs). Expect
// single-digit nanoseconds and 0 allocs/op.
func BenchmarkObsDisabled(b *testing.B) {
	var in *instr
	var vec *obs.CounterVec
	rt := prof.NewRuntimeSampler(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.junctionBacktrack()
		vec.With("n", "6", "mode", "guaranteed").Inc()
		rt.Sample()
	}
}

// BenchmarkObsEnabled is the same hook sequence against a live
// registry, for comparison.
func BenchmarkObsEnabled(b *testing.B) {
	in := newInstr(obs.NewRegistry(), 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.junctionBacktrack()
	}
}

// BenchmarkObsEmbedOverhead embeds S_7 with instrumentation on, to be
// read against BenchmarkEmbedTheorem1's uninstrumented numbers.
func BenchmarkObsEmbedOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fs := faults.RandomVertices(7, 4, rng)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Embed(7, fs, Config{Obs: reg}); err != nil {
			b.Fatal(err)
		}
	}
}
