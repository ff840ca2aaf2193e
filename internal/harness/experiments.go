package harness

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/sim"
	"repro/internal/star"
	"repro/internal/substar"
)

// distribution names a fault generator used in the sweeps.
type distribution struct {
	name string
	gen  func(n, k int, rng *rand.Rand) (*faults.Set, error)
}

func distributions() []distribution {
	return []distribution{
		{"uniform", func(n, k int, rng *rand.Rand) (*faults.Set, error) {
			return faults.RandomVertices(n, k, rng), nil
		}},
		{"same-partite", func(n, k int, rng *rand.Rand) (*faults.Set, error) {
			return faults.SamePartiteVertices(n, k, 0, rng), nil
		}},
		{"clustered", func(n, k int, rng *rand.Rand) (*faults.Set, error) {
			m := 3
			for perm.Factorial(m) < k {
				m++
			}
			fs, _, err := faults.ClusteredVertices(n, k, m, rng)
			return fs, err
		}},
	}
}

// T1 validates Theorem 1: every embedding meets n! - 2|Fv|, for every
// dimension, fault count and distribution; small configurations are
// swept exhaustively over all fault positions.
func T1(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "T1",
		Title: "Theorem 1: healthy ring of length >= n!-2|Fv| (|Fv| <= n-3)",
		Caption: "Every trial re-verified: simple, closed, fault-free, length >= guarantee. " +
			"min/max lengths are across trials; 'exhaustive' sweeps every fault placement.",
		Headers: []string{"n", "|Fv|", "distribution", "trials", "min len", "max len", "guarantee", "ok"},
	}
	// Exhaustive: S4 with every single fault; S5 with every fault pair
	// (its complete budget); S6 with every single fault.
	if err := t1Exhaustive(t, 4, 1, cfg.Obs); err != nil {
		return nil, err
	}
	for k := 1; k <= 2; k++ {
		if err := t1Exhaustive(t, 5, k, cfg.Obs); err != nil {
			return nil, err
		}
	}
	if err := t1Exhaustive(t, 6, 1, cfg.Obs); err != nil {
		return nil, err
	}
	for n := 6; n <= cfg.MaxN; n++ {
		for k := 0; k <= faults.MaxTolerated(n); k++ {
			for _, d := range distributions() {
				if d.name == "clustered" && k == 0 {
					continue
				}
				minLen, maxLen := 1<<62, 0
				want := perm.Factorial(n) - 2*k
				for seed := 0; seed < cfg.Seeds; seed++ {
					rng := rand.New(rand.NewSource(int64(seed + 7919*n + 104729*k)))
					fs, err := d.gen(n, k, rng)
					if err != nil {
						return nil, fmt.Errorf("n=%d k=%d %s: %w", n, k, d.name, err)
					}
					plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
					if err != nil {
						return nil, fmt.Errorf("n=%d k=%d %s: %w", n, k, d.name, err)
					}
					res := plan.Result()
					if res.Len() < want {
						return nil, fmt.Errorf("n=%d k=%d %s: len %d < %d", n, k, d.name, res.Len(), want)
					}
					if res.Len() < minLen {
						minLen = res.Len()
					}
					if res.Len() > maxLen {
						maxLen = res.Len()
					}
				}
				t.AddRow(n, k, d.name, cfg.Seeds, minLen, maxLen, want, "yes")
			}
		}
	}
	return []*Table{t}, nil
}

// t1Exhaustive sweeps every k-subset of vertex faults in S_n (only
// sensible for tiny n).
func t1Exhaustive(t *Table, n, k int, reg *obs.Registry) error {
	total := perm.Factorial(n)
	want := total - 2*k
	minLen, maxLen, trials := 1<<62, 0, 0
	var rec func(start int, picked []int) error
	rec = func(start int, picked []int) error {
		if len(picked) == k {
			fs := faults.NewSet(n)
			for _, r := range picked {
				if err := fs.AddVertex(perm.UnrankCode(n, r)); err != nil {
					return err
				}
			}
			plan, err := core.Embed(n, fs, core.Config{Obs: reg})
			if err != nil {
				return fmt.Errorf("exhaustive n=%d %v: %w", n, picked, err)
			}
			res := plan.Result()
			if res.Len() < want {
				return fmt.Errorf("exhaustive n=%d %v: len %d < %d", n, picked, res.Len(), want)
			}
			trials++
			if res.Len() < minLen {
				minLen = res.Len()
			}
			if res.Len() > maxLen {
				maxLen = res.Len()
			}
			return nil
		}
		for r := start; r < total; r++ {
			if err := rec(r+1, append(picked, r)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, nil); err != nil {
		return err
	}
	t.AddRow(n, k, "exhaustive", trials, minLen, maxLen, want, "yes")
	return nil
}

// T2 certifies worst-case optimality: with all faults in one partite
// set the bipartite ceiling equals n! - 2|Fv| and the algorithm attains
// it exactly; on S4 an exhaustive longest-cycle search independently
// confirms that no longer cycle exists for any fault placement.
func T2(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "T2",
		Title: "Optimality: same-partite faults meet the bipartite ceiling exactly",
		Caption: "ceiling = n! - 2*max(f_even, f_odd) bounds ANY healthy cycle. With all " +
			"faults on one side it equals the guarantee, so the embedded ring is longest " +
			"possible. The S4 row is certified by exhaustive longest-cycle search.",
		Headers: []string{"n", "|Fv|", "achieved", "ceiling", "achieved=ceiling", "certification"},
	}
	// Exhaustive S4 certification: for every vertex fault, the longest
	// cycle found by unbounded search is exactly 22.
	worst := 0
	best := 1 << 62
	for f := 0; f < pathsearch.BlockOrder; f++ {
		_, l := pathsearch.Canon.LongestCycleAvoiding(1<<uint(f), nil)
		if l > worst {
			worst = l
		}
		if l < best {
			best = l
		}
	}
	if best != 22 || worst != 22 {
		return nil, fmt.Errorf("T2: S4 exhaustive longest cycle in [%d,%d], want 22", best, worst)
	}
	t.AddRow(4, 1, 22, 22, "yes", "exhaustive search, all 24 fault positions")

	for n := 5; n <= cfg.MaxN; n++ {
		k := faults.MaxTolerated(n)
		rng := rand.New(rand.NewSource(int64(n)))
		fs := faults.SamePartiteVertices(n, k, 0, rng)
		plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		res := plan.Result()
		ceiling := check.BipartiteUpperBound(n, fs)
		eq := "yes"
		if res.Len() != ceiling {
			eq = "NO"
		}
		t.AddRow(n, k, res.Len(), ceiling, eq, "bipartite counting bound")
	}
	return []*Table{t}, nil
}

// T3 compares against Tseng-Chang-Sheu on identical fault sets.
func T3(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "T3",
		Title: "Paper (n!-2|Fv|) vs Tseng et al. (n!-4|Fv|) on identical fault sets",
		Caption: "Both algorithms run on the same fault sets; lengths are means over seeds. " +
			"The guarantee gap is exactly 2|Fv|; the measured gap matches because both " +
			"constructions realize their bounds.",
		Headers: []string{"n", "|Fv|", "paper len", "tseng len", "paper guar", "tseng guar", "gap"},
	}
	for n := 5; n <= cfg.MaxN; n++ {
		for k := 1; k <= faults.MaxTolerated(n); k++ {
			var sumP, sumT int
			for seed := 0; seed < cfg.Seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(31*seed + n*1000 + k)))
				fs := faults.RandomVertices(n, k, rng)
				plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
				if err != nil {
					return nil, err
				}
				p := plan.Result()
				q, err := baseline.Tseng(n, fs, core.Config{Obs: cfg.Obs})
				if err != nil {
					return nil, err
				}
				if p.Len() < p.Guarantee {
					return nil, fmt.Errorf("T3: paper under its guarantee (n=%d k=%d)", n, k)
				}
				if len(q.Ring) < q.Guarantee {
					return nil, fmt.Errorf("T3: baseline under its guarantee (n=%d k=%d)", n, k)
				}
				sumP += p.Len()
				sumT += len(q.Ring)
			}
			meanP := float64(sumP) / float64(cfg.Seeds)
			meanT := float64(sumT) / float64(cfg.Seeds)
			t.AddRow(n, k, meanP, meanT,
				perm.Factorial(n)-2*k, perm.Factorial(n)-4*k, meanP-meanT)
		}
	}
	return []*Table{t}, nil
}

// T4 charts the clustered regime: guarantee gap m! - 2|Fv| flips sign at
// the crossover 2|Fv| = m!.
func T4(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "T4",
		Title: "Clustered faults: paper vs Latifi-Bagherzadeh (n!-m!)",
		Caption: "All faults inside one S_m. The guarantee gap is m!-2|Fv|: the paper wins " +
			"whenever faults do not pack into a tiny cluster (2|Fv| < m!), and the clustered " +
			"bound wins below the crossover 2|Fv| = m! — the regime it was designed for.",
		Headers: []string{"n", "m", "|Fv|", "paper len", "latifi len", "paper guar", "latifi guar", "winner"},
	}
	for n := 5; n <= cfg.MaxN; n++ {
		for _, m := range []int{2, 3, 4} {
			if m >= n {
				continue
			}
			k := faults.MaxTolerated(n)
			if f := perm.Factorial(m); k > f {
				k = f
			}
			rng := rand.New(rand.NewSource(int64(n*100 + m)))
			fs, _, err := faults.ClusteredVertices(n, k, m, rng)
			if err != nil {
				return nil, err
			}
			plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
			if err != nil {
				return nil, err
			}
			p := plan.Result()
			q, err := baseline.Latifi(n, fs, core.Config{Obs: cfg.Obs})
			if err != nil {
				return nil, err
			}
			winner := "paper"
			switch {
			case q.Guarantee > p.Guarantee:
				winner = "latifi"
			case q.Guarantee == p.Guarantee:
				winner = "tie"
			}
			t.AddRow(n, q.M, k, p.Len(), len(q.Ring), p.Guarantee, q.Guarantee, winner)
		}
	}
	return []*Table{t}, nil
}

// T5 checks the edge-fault companion: |Fe| <= n-3 leaves the ring
// Hamiltonian.
func T5(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:      "T5",
		Title:   "Edge faults only: Hamiltonian ring (length n!) with |Fe| <= n-3",
		Caption: "Vertex count is unreduced: the block search routes around faulty edges and junction selection avoids faulty crossing edges.",
		Headers: []string{"n", "|Fe|", "trials", "min len", "n!", "hamiltonian"},
	}
	for n := 4; n <= cfg.MaxN; n++ {
		for k := 1; k <= faults.MaxTolerated(n); k++ {
			minLen := 1 << 62
			for seed := 0; seed < cfg.Seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(17*seed + n*100 + k)))
				fs := faults.RandomEdges(n, k, rng)
				plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
				if err != nil {
					return nil, fmt.Errorf("T5 n=%d k=%d: %w", n, k, err)
				}
				res := plan.Result()
				if res.Len() < minLen {
					minLen = res.Len()
				}
			}
			ok := "yes"
			if minLen != perm.Factorial(n) {
				ok = "NO"
			}
			t.AddRow(n, k, cfg.Seeds, minLen, perm.Factorial(n), ok)
		}
	}
	return []*Table{t}, nil
}

// T6 checks the mixed-fault extension from the concluding remarks.
func T6(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:      "T6",
		Title:   "Mixed faults: length >= n!-2|Fv| whenever |Fv|+|Fe| <= n-3",
		Caption: "Every split of the budget between vertex and edge faults; the loss depends only on |Fv|.",
		Headers: []string{"n", "|Fv|", "|Fe|", "trials", "min len", "guarantee", "ok"},
	}
	for n := 5; n <= cfg.MaxN; n++ {
		budget := faults.MaxTolerated(n)
		for kv := 0; kv <= budget; kv++ {
			ke := budget - kv
			minLen := 1 << 62
			want := perm.Factorial(n) - 2*kv
			for seed := 0; seed < cfg.Seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(13*seed + n*50 + kv)))
				fs := faults.Mixed(n, kv, ke, rng)
				plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
				if err != nil {
					return nil, fmt.Errorf("T6 n=%d kv=%d ke=%d: %w", n, kv, ke, err)
				}
				res := plan.Result()
				if res.Len() < minLen {
					minLen = res.Len()
				}
			}
			ok := "yes"
			if minLen < want {
				ok = "NO"
			}
			t.AddRow(n, kv, ke, cfg.Seeds, minLen, want, ok)
		}
	}
	return []*Table{t}, nil
}

// F1 produces the headline series: ring length vs |Fv| for each
// algorithm at n=7, plus the bipartite ceiling.
func F1(cfg SweepConfig) ([]*Table, error) {
	n := 7
	if cfg.MaxN < 7 {
		n = cfg.MaxN
	}
	t := &Table{
		ID:    "F1",
		Title: fmt.Sprintf("Ring length vs |Fv| per algorithm (n=%d, uniform faults, mean of %d seeds)", n, cfg.Seeds),
		Caption: "The data behind the paper's comparison: the paper tracks the ceiling at " +
			"distance 2|Fv| from n!, Tseng at 4|Fv|; the clustered baseline depends on how " +
			"tightly the random faults happen to cluster (here: not at all, so m is large and " +
			"its guarantee collapses).",
		Headers: []string{"|Fv|", "ceiling(worst)", "paper", "tseng", "latifi"},
	}
	for k := 0; k <= faults.MaxTolerated(n); k++ {
		var sumP, sumT float64
		latifi := "n/a"
		var sumL float64
		latifiOK := 0
		for seed := 0; seed < cfg.Seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(97*seed + k)))
			fs := faults.RandomVertices(n, k, rng)
			plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
			if err != nil {
				return nil, err
			}
			p := plan.Result()
			sumP += float64(p.Len())
			q, err := baseline.Tseng(n, fs, core.Config{Obs: cfg.Obs})
			if err != nil {
				return nil, err
			}
			sumT += float64(len(q.Ring))
			if k > 0 {
				if l, err := baseline.Latifi(n, fs, core.Config{Obs: cfg.Obs}); err == nil {
					sumL += float64(len(l.Ring))
					latifiOK++
				}
			}
		}
		if latifiOK > 0 {
			latifi = fmt.Sprintf("%.2f", sumL/float64(latifiOK))
		}
		t.AddRow(k, perm.Factorial(n)-2*k,
			sumP/float64(cfg.Seeds), sumT/float64(cfg.Seeds), latifi)
	}
	return []*Table{t}, nil
}

// F2 measures construction cost vs dimension at the maximum fault
// budget.
func F2(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "F2",
		Title: "Construction time and output size vs n (|Fv| = n-3)",
		Caption: "Wall time for one embedding including self-verification; the algorithm is " +
			"near-linear in the output (n! ring entries of 8 bytes).",
		Headers: []string{"n", "|Fv|", "ring len", "blocks", "time", "ring MiB"},
	}
	top := cfg.MaxN + 1
	if top > 10 {
		top = 10
	}
	clock := cfg.clock()
	for n := 4; n <= top; n++ {
		k := faults.MaxTolerated(n)
		rng := rand.New(rand.NewSource(int64(n)))
		fs := faults.RandomVertices(n, k, rng)
		start := clock.Now()
		plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		res := plan.Result()
		elapsed := obs.Since(clock, start).Round(10 * time.Microsecond)
		t.AddRow(n, k, res.Len(), res.Blocks, elapsed,
			float64(res.Len()*8)/(1<<20))
	}
	return []*Table{t}, nil
}

// F3 sweeps the fault parity mix: the algorithm always loses exactly
// 2|Fv|, while the ceiling n! - 2*max(f0, f1) relaxes as faults split
// across the bipartition — quantifying the gap Theorem 1 leaves open
// outside the worst case.
func F3(cfg SweepConfig) ([]*Table, error) {
	n := 7
	if cfg.MaxN < 7 {
		n = cfg.MaxN
	}
	k := faults.MaxTolerated(n)
	t := &Table{
		ID:    "F3",
		Title: fmt.Sprintf("Fault parity mix (n=%d, |Fv|=%d): achieved vs ceiling", n, k),
		Caption: "With j faults even / k-j odd the ceiling is n! - 2*max(j, k-j); the paper's " +
			"construction pays 2 per fault regardless, so it is exactly optimal at the " +
			"extremes (all faults one side) and leaves a gap in between. The opportunistic " +
			"extension (this library, beyond the paper) recovers the gap by routing one " +
			"faulty block per fault-parity run with 23 vertices instead of 22.",
		Headers: []string{"even faults", "odd faults", "paper", "opportunistic", "guarantee", "ceiling"},
	}
	for j := 0; j <= k; j++ {
		rng := rand.New(rand.NewSource(int64(41*j + 5)))
		fs := faults.NewSet(n)
		for fs.NumVertices() < j {
			v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if v.Parity(n) == 0 {
				if err := fs.AddVertex(v); err != nil {
					return nil, err
				}
			}
		}
		for fs.NumVertices() < k {
			v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if v.Parity(n) == 1 {
				if err := fs.AddVertex(v); err != nil {
					return nil, err
				}
			}
		}
		plan, err := core.Embed(n, fs, core.Config{Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		res := plan.Result()
		oppPlan, err := core.Embed(n, fs, core.Config{Opportunistic: true, Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		opp := oppPlan.Result()
		ceiling := check.BipartiteUpperBound(n, fs)
		t.AddRow(j, k-j, res.Len(), opp.Len(), res.Guarantee, ceiling)
	}
	return []*Table{t}, nil
}

// F4 charts the longest-path extension: guaranteed and measured path
// lengths between endpoints of equal and opposite parity.
func F4(cfg SweepConfig) ([]*Table, error) {
	n := 7
	if cfg.MaxN < 7 {
		n = cfg.MaxN
	}
	t := &Table{
		ID:    "F4",
		Title: fmt.Sprintf("Longest s-t paths (n=%d): measured vs guarantee by endpoint parity", n),
		Caption: "Extension beyond the paper (the authors' follow-up problem): a healthy s-t " +
			"path of n!-2|Fv| vertices when s, t lie in different partite sets, one fewer when " +
			"they share one — and one MORE when a faulty block can shed only its fault " +
			"(same-side endpoints, opposite-side fault).",
		Headers: []string{"|Fv|", "parity", "trials", "min len", "max len", "guarantee"},
	}
	for k := 0; k <= faults.MaxTolerated(n); k++ {
		for _, same := range []bool{false, true} {
			minLen, maxLen := 1<<62, 0
			want := perm.Factorial(n) - 2*k
			label := "opposite"
			if same {
				want--
				label = "same"
			}
			trials := 0
			for seed := 0; seed < cfg.Seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(59*seed + 10*n + k)))
				fs := faults.RandomVertices(n, k, rng)
				var s, tt perm.Code
				for {
					s = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
					tt = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
					if s == tt || fs.HasVertex(s) || fs.HasVertex(tt) {
						continue
					}
					if (s.Parity(n) == tt.Parity(n)) == same {
						break
					}
				}
				plan, err := core.EmbedPath(n, fs, s, tt, core.Config{Obs: cfg.Obs})
				if err != nil {
					return nil, fmt.Errorf("F4 k=%d seed=%d: %w", k, seed, err)
				}
				l := plan.RingLen()
				if l < want {
					return nil, fmt.Errorf("F4 k=%d: path %d < %d", k, l, want)
				}
				trials++
				if l < minLen {
					minLen = l
				}
				if l > maxLen {
					maxLen = l
				}
			}
			t.AddRow(k, label, trials, minLen, maxLen, want)
		}
	}
	return []*Table{t}, nil
}

// F5 runs the operational campaign on the machine simulator: processors
// fail between work phases, the ring is re-embedded online, and the
// table reports availability and capacity — the system-level view of
// the paper's per-failure cost.
func F5(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "F5",
		Title: "Operational campaign (internal/sim): availability under failures",
		Caption: "Each row is a deterministic campaign: work laps interleaved with on-ring " +
			"failures and online repair (4 ticks per re-routed block). Failures absorbed by " +
			"the splice fast path re-route one block; only skeleton-invalidating failures " +
			"pay for a full re-embedding. Within the budget every failure costs exactly 2 " +
			"ring slots (guarantee column); beyond it the machine continues best-effort.",
		Headers: []string{"n", "failures", "laps", "final ring", "availability", "splices", "reembeds", "guarantee held"},
	}
	for _, n := range []int{5, 6, 7} {
		if n > cfg.MaxN {
			continue
		}
		budget := faults.MaxTolerated(n)
		for _, failures := range []int{budget, budget + 2} {
			rep, err := sim.RunCampaign(sim.CampaignConfig{
				Machine: sim.Config{
					N:                   n,
					HopCost:             1,
					ReembedCostPerBlock: 4,
					Embed:               core.Config{BestEffort: true},
					Obs:                 cfg.Obs,
				},
				Failures:    failures,
				LapsBetween: 2,
				Seed:        int64(100*n + failures),
			})
			if err != nil {
				return nil, fmt.Errorf("F5 n=%d failures=%d: %w", n, failures, err)
			}
			held := "yes"
			if !rep.GuaranteeHeld {
				held = "NO"
			}
			if failures > budget {
				held = "n/a (beyond budget)"
			}
			t.AddRow(n, failures, rep.Laps, rep.FinalRing,
				fmt.Sprintf("%.2f%%", 100*rep.Availability), rep.Splices, rep.Reembeds, held)
		}
	}
	return []*Table{t}, nil
}

// A1 tabulates the ablations DESIGN.md calls out: the committed table
// of Lemma 4's one-fault detours against the block search it was
// generated from, the Warnsdorff branch ordering in the block DFS, and
// Lemma 2's greedy separation vs naive fixed positions. Timings are
// wall-clock for a fixed workload; the structural column shows what the
// greedy protects (zero (P1) violations).
func A1(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "Ablations: one-fault table, branch ordering, greedy separation",
		Caption: "Workload for the first three rows: a full Lemma 4 sweep (every fault, every " +
			"adjacent healthy pair, 22-vertex target). The separation rows embed one " +
			"adversarially clustered instance in S_7; naive positions leave a multi-fault " +
			"block, so the n!-2|Fv| GUARANTEE no longer applies even when the measured " +
			"length survives via degraded routing.",
		Headers: []string{"variant", "workload time", "(P1) violations", "note"},
	}

	clock := cfg.clock()
	canon := pathsearch.Canon
	whole, err := pathsearch.NewBlock(substar.Whole(4))
	if err != nil {
		return nil, err
	}
	// Each variant answers one Lemma 4 query: is there a 22-vertex path
	// from u to v around the faulty vertex f?
	sweep := func(ask func(f, u, v uint8) bool) (time.Duration, error) {
		start := clock.Now()
		for f := uint8(0); f < pathsearch.BlockOrder; f++ {
			for u := uint8(0); u < pathsearch.BlockOrder; u++ {
				if u == f {
					continue
				}
				for a := canon.Adjacency(u) &^ (1 << f); a != 0; a &= a - 1 {
					if v := uint8(bits.TrailingZeros32(a)); !ask(f, u, v) {
						return 0, fmt.Errorf("harness: Lemma 4 sweep found no 22-vertex path from %d to %d around %d", u, v, f)
					}
				}
			}
		}
		return obs.Since(clock, start), nil
	}
	var avoid [1]perm.Code
	table := func(f, u, v uint8) bool {
		avoid[0] = canon.Code(f)
		_, ok := whole.Route(pathsearch.PathSpec{From: canon.Code(u), To: canon.Code(v), AvoidV: avoid[:], Target: 22})
		return ok
	}
	search := func(noHeuristic bool) func(f, u, v uint8) bool {
		return func(f, u, v uint8) bool {
			_, ok := canon.FindPath(pathsearch.Query{From: u, To: v, ForbidV: 1 << f, Target: 22, NoHeuristic: noHeuristic})
			return ok
		}
	}
	for _, variant := range []struct {
		label string
		ask   func(f, u, v uint8) bool
		note  string
	}{
		{"one-fault table", table, "Block.Route: one read of the detour table"},
		{"search", search(false), "every query searched"},
		{"search, no heuristic", search(true), "plain DFS ordering"},
	} {
		d, err := sweep(variant.ask)
		if err != nil {
			return nil, err
		}
		t.AddRow(variant.label, d.Round(10*time.Microsecond), "-", variant.note)
	}

	// Separation ablation.
	n := 7
	fs := faults.NewSet(n)
	base := []uint8{1, 2, 3, 4, 5, 6, 7}
	for _, p := range []int{0, 4, 5, 6} {
		v := append([]uint8{}, base...)
		v[0], v[p] = v[p], v[0]
		pp, err := perm.New(v)
		if err != nil {
			return nil, err
		}
		if err := fs.AddVertex(perm.Pack(pp)); err != nil {
			return nil, err
		}
	}
	countViolations := func(positions []int) int {
		k := 0
		for _, blk := range substar.Whole(n).PartitionSeq(positions) {
			if fs.CountIn(blk) > 1 {
				k++
			}
		}
		return k
	}
	greedy, _ := fs.SeparatingPositions()
	naive := []int{2, 3, 4}
	t.AddRow("Lemma 2 greedy positions", "-", countViolations(greedy), fmt.Sprintf("positions %v", greedy))
	t.AddRow("naive positions 2..n-3", "-", countViolations(naive), "guarantee lost: one block holds all faults")
	return []*Table{t}, nil
}

// F6 probes beyond the proven edge-fault budget: the theorem guarantees
// Hamiltonian rings only for |Fe| <= n-3, but the exact block search
// and junction backtracking often absorb many more faulty edges. The
// table reports, for random edge-fault sets past the budget, how often
// a full n! ring still comes out (best-effort mode, so the run cannot
// fail outright).
func F6(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "F6",
		Title: "Empirical edge-fault tolerance beyond the proven budget |Fe| <= n-3",
		Caption: "Strictly beyond the paper: measured behavior, not a guarantee. 'hamiltonian' " +
			"counts trials whose best-effort ring still reached n!; 'min len' is the worst " +
			"observed. Failures concentrate when faults gang up on one block or superedge.",
		Headers: []string{"n", "|Fe|", "budget", "trials", "hamiltonian", "min len", "n!"},
	}
	for _, n := range []int{6, 7} {
		if n > cfg.MaxN {
			continue
		}
		budget := faults.MaxTolerated(n)
		seen := map[int]bool{}
		for _, ke := range []int{budget, budget + 2, 2*n - 7, 3 * budget} {
			if seen[ke] {
				continue
			}
			seen[ke] = true
			ham, minLen := 0, 1<<62
			for seed := 0; seed < cfg.Seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(7*seed + 100*n + ke)))
				fs := faults.RandomEdges(n, ke, rng)
				plan, err := core.Embed(n, fs, core.Config{BestEffort: true, Obs: cfg.Obs})
				if err != nil {
					return nil, fmt.Errorf("F6 n=%d ke=%d seed=%d: %w", n, ke, seed, err)
				}
				res := plan.Result()
				if res.Len() == perm.Factorial(n) {
					ham++
				}
				if res.Len() < minLen {
					minLen = res.Len()
				}
			}
			t.AddRow(n, ke, budget, cfg.Seeds,
				fmt.Sprintf("%d/%d", ham, cfg.Seeds), minLen, perm.Factorial(n))
		}
	}
	return []*Table{t}, nil
}

// F8 measures the skeleton-form pipeline: every embedding keeps its
// ring as the routed block skeleton (O(#blocks) memory; the ring is
// replayed block by block on demand) and verification runs through
// check.RingStream one vertex at a time. The table contrasts the bytes
// a flat []perm.Code ring would occupy against the live-heap growth
// observed across an embed plus a full stream verification — the gap
// is the memory the skeleton saves.
func F8(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "F8",
		Title: "Streaming scaling: skeleton-form embed + stream verify vs flat ring size",
		Caption: "Each row embeds (the ring stays in skeleton form, never materialized) and " +
			"verifies through check.RingStream via a fresh block cursor. 'ring MiB' is what a " +
			"flat cycle would occupy (8 bytes/vertex); 'heap delta MiB' is live-heap growth " +
			"across embed+verify measured by prof.HeapLiveBytes (GC noise makes it an " +
			"estimate, so it is reported, not asserted). Larger dimensions (the n=10 run in " +
			"EXPERIMENTS.md) go through `starring -n 10` with the runtime sampler.",
		Headers: []string{"n", "|Fv|", "ring len", "blocks", "embed", "stream verify", "ring MiB", "heap delta MiB"},
	}
	clock := cfg.clock()
	top := cfg.MaxN
	if top > 9 {
		top = 9 // n=10 belongs to the CLI-level scaling run, not the sweep
	}
	for n := 6; n <= top; n++ {
		k := faults.MaxTolerated(n)
		rng := rand.New(rand.NewSource(int64(n)))
		fs := faults.RandomVertices(n, k, rng)
		heap0 := prof.HeapLiveBytes()
		start := clock.Now()
		e, err := core.NewEmbedder(n, core.Config{Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		p, err := e.Embed(fs)
		if err != nil {
			return nil, fmt.Errorf("F8 n=%d: %w", n, err)
		}
		embedT := obs.Since(clock, start)
		res := p.Result()
		want := res.Guarantee
		start = clock.Now()
		count, err := check.RingStream(star.New(n), p.Cursor().Next, fs, want)
		verifyT := obs.Since(clock, start)
		if err != nil {
			return nil, fmt.Errorf("F8 n=%d: stream verify: %w", n, err)
		}
		if count != res.Len() {
			return nil, fmt.Errorf("F8 n=%d: cursor emitted %d vertices, skeleton declares %d", n, count, res.Len())
		}
		delta := prof.HeapLiveBytes() - heap0
		if delta < 0 {
			delta = 0 // a GC ran mid-measurement
		}
		t.AddRow(n, k, count, res.Blocks,
			embedT.Round(10*time.Microsecond), verifyT.Round(10*time.Microsecond),
			float64(count*8)/(1<<20), float64(delta)/(1<<20))
	}
	return []*Table{t}, nil
}

// F7 measures the incremental repair engine: seeded campaigns of
// random on-ring failures drive core.Plan.Repair, timing every repair
// and classifying it as a splice (one 24-vertex block re-routed and
// spliced in place) or a full rebuild, then timing a cold core.Embed
// of the same final fault set for reference. The speedup column is the
// headline claim of the Plan/Repair pipeline: the splice fast path is
// orders of magnitude cheaper than cold embedding because it searches
// one S_4 block instead of re-running the whole n! pipeline.
func F7(cfg SweepConfig) ([]*Table, error) {
	t := &Table{
		ID:    "F7",
		Title: "Repair latency: splice fast path vs full rebuild vs cold embedding",
		Caption: "Seeded campaigns fail random on-ring processors up to the budget n-3; every " +
			"repaired ring is re-checked against n!-2|Fv|. 'cold' is a fresh Embed of the " +
			"final fault set; 'splice speedup' is mean cold / mean splice ('n/a' when no " +
			"splice occurred or under a zero-width test clock). Splices win by roughly the " +
			"n!/24 block ratio; rebuilds cost a full cold embedding.",
		Headers: []string{"n", "blocks", "repairs", "splices", "rebuilds",
			"mean splice", "mean rebuild", "mean cold", "splice speedup"},
	}
	clock := cfg.clock()
	for n := 5; n <= cfg.MaxN; n++ {
		var spliceTime, rebuildTime, coldTime time.Duration
		repairs, splices, rebuilds := 0, 0, 0
		blocks := perm.Factorial(n) / pathsearch.BlockOrder
		for seed := 0; seed < cfg.Seeds; seed++ {
			e, err := core.NewEmbedder(n, core.Config{Obs: cfg.Obs})
			if err != nil {
				return nil, err
			}
			p, err := e.Embed(nil)
			if err != nil {
				return nil, fmt.Errorf("F7 n=%d seed=%d: %w", n, seed, err)
			}
			rng := rand.New(rand.NewSource(int64(23*seed + 1000*n)))
			for i := 0; i < faults.MaxTolerated(n); i++ {
				v := p.RingAt(rng.Intn(p.RingLen()))
				start := clock.Now()
				rep, err := p.Repair(v)
				d := obs.Since(clock, start)
				if err != nil {
					return nil, fmt.Errorf("F7 n=%d seed=%d fault %d: %w", n, seed, i, err)
				}
				repairs++
				switch rep.Outcome {
				case core.RepairSplice:
					splices++
					spliceTime += d
				case core.RepairRebuild:
					rebuilds++
					rebuildTime += d
				}
				res := p.Result()
				if !res.Guaranteed || res.Len() < res.Guarantee {
					return nil, fmt.Errorf("F7 n=%d seed=%d: repaired ring %d under guarantee %d",
						n, seed, res.Len(), res.Guarantee)
				}
			}
			start := clock.Now()
			if _, err := core.Embed(n, p.Faults(), core.Config{Obs: cfg.Obs}); err != nil {
				return nil, fmt.Errorf("F7 n=%d seed=%d: cold embed of final fault set: %w",
					n, seed, err)
			}
			coldTime += obs.Since(clock, start)
		}
		// Mean cells keep the exact nanosecond value typed; only the text
		// is rounded. Zero-count means render "n/a" with no value, so
		// machine consumers skip them instead of reading 0 ns.
		mean := func(total time.Duration, count int) (time.Duration, Cell) {
			if count == 0 {
				return 0, TextCell("n/a")
			}
			m := total / time.Duration(count)
			return m, Cell{Text: m.Round(time.Microsecond).String(), NS: ptrInt64(int64(m))}
		}
		meanSplice, spliceCell := mean(spliceTime, splices)
		_, rebuildCell := mean(rebuildTime, rebuilds)
		meanCold, coldCell := mean(coldTime, cfg.Seeds)
		speedup := TextCell("n/a")
		if splices > 0 && meanSplice > 0 {
			ratio := float64(meanCold) / float64(meanSplice)
			speedup = NumCell(fmt.Sprintf("%.0fx", ratio), ratio)
		}
		t.AddRow(n, blocks, repairs, splices, rebuilds, spliceCell, rebuildCell, coldCell, speedup)
	}
	return []*Table{t}, nil
}
