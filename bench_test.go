// Benchmarks regenerating the evaluation of DESIGN.md's experiment
// index: one benchmark per table/series (T1-T6, F1-F5, F7; the A1 ablation
// benchmarks live next to the code they measure, in internal/pathsearch
// and internal/core). Run with
//
//	go test -bench=. -benchmem
//
// Custom metrics attach the scientific payload to the timing: ring
// length, guarantee and ceiling per operation. The same sweeps, at
// tabular resolution, are produced by cmd/starsweep.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	repro "repro"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/sim"
)

// BenchmarkEmbedTheorem1 (T1): the paper's algorithm at the full fault
// budget across dimensions and distributions.
func BenchmarkEmbedTheorem1(b *testing.B) {
	for n := 5; n <= 8; n++ {
		k := faults.MaxTolerated(n)
		for _, dist := range []string{"uniform", "samePartite"} {
			b.Run(fmt.Sprintf("n=%d/Fv=%d/%s", n, k, dist), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				var fs *faults.Set
				if dist == "uniform" {
					fs = faults.RandomVertices(n, k, rng)
				} else {
					fs = faults.SamePartiteVertices(n, k, 0, rng)
				}
				var lastLen int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan, err := core.Embed(n, fs, core.Config{})
					if err != nil {
						b.Fatal(err)
					}
					res := plan.Result()
					lastLen = res.Len()
				}
				b.ReportMetric(float64(lastLen), "ringlen")
				b.ReportMetric(float64(perm.Factorial(n)-2*k), "guarantee")
			})
		}
	}
}

// BenchmarkOptimalityCertification (T2): exhaustive longest-cycle
// search over every single-fault placement in S4, certifying the 22
// ceiling the paper's bound rests on.
func BenchmarkOptimalityCertification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for f := 0; f < pathsearch.BlockOrder; f++ {
			_, l := pathsearch.Canon.LongestCycleAvoiding(1<<uint(f), nil)
			if l != 22 {
				b.Fatalf("fault %d: longest cycle %d, want 22", f, l)
			}
		}
	}
	b.ReportMetric(22, "ceiling")
}

// BenchmarkEmbedVsTseng (T3): both algorithms on identical fault sets;
// the ringlen metrics expose the 2|Fv| measured gap.
func BenchmarkEmbedVsTseng(b *testing.B) {
	for n := 5; n <= 7; n++ {
		k := faults.MaxTolerated(n)
		rng := rand.New(rand.NewSource(int64(n) * 17))
		fs := faults.RandomVertices(n, k, rng)
		b.Run(fmt.Sprintf("paper/n=%d/Fv=%d", n, k), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			b.ReportMetric(float64(l), "ringlen")
		})
		b.Run(fmt.Sprintf("tseng/n=%d/Fv=%d", n, k), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				res, err := baseline.Tseng(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				l = len(res.Ring)
			}
			b.ReportMetric(float64(l), "ringlen")
		})
	}
}

// BenchmarkEmbedClustered (T4): the clustered regime on both sides of
// the m! = 2|Fv| crossover.
func BenchmarkEmbedClustered(b *testing.B) {
	n := 7
	for _, tc := range []struct {
		m, k int
	}{{2, 2}, {3, 4}, {4, 4}} {
		rng := rand.New(rand.NewSource(int64(tc.m*10 + tc.k)))
		fs, _, err := faults.ClusteredVertices(n, tc.k, tc.m, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("paper/m=%d/Fv=%d", tc.m, tc.k), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			b.ReportMetric(float64(l), "ringlen")
		})
		b.Run(fmt.Sprintf("latifi/m=%d/Fv=%d", tc.m, tc.k), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				res, err := baseline.Latifi(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				l = len(res.Ring)
			}
			b.ReportMetric(float64(l), "ringlen")
		})
	}
}

// BenchmarkEmbedEdgeFaults (T5): Hamiltonian embeddings under the edge
// fault budget.
func BenchmarkEmbedEdgeFaults(b *testing.B) {
	for n := 5; n <= 8; n++ {
		k := faults.MaxTolerated(n)
		rng := rand.New(rand.NewSource(int64(n) * 29))
		fs := faults.RandomEdges(n, k, rng)
		b.Run(fmt.Sprintf("n=%d/Fe=%d", n, k), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			if l != perm.Factorial(n) {
				b.Fatalf("length %d, want Hamiltonian %d", l, perm.Factorial(n))
			}
			b.ReportMetric(float64(l), "ringlen")
		})
	}
}

// BenchmarkEmbedMixed (T6): the concluding-remark extension, splitting
// the budget between vertex and edge faults.
func BenchmarkEmbedMixed(b *testing.B) {
	n := 7
	budget := faults.MaxTolerated(n)
	for kv := 0; kv <= budget; kv += 2 {
		ke := budget - kv
		rng := rand.New(rand.NewSource(int64(kv) + 3))
		fs := faults.Mixed(n, kv, ke, rng)
		b.Run(fmt.Sprintf("n=%d/Fv=%d/Fe=%d", n, kv, ke), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			b.ReportMetric(float64(l), "ringlen")
			b.ReportMetric(float64(perm.Factorial(n)-2*kv), "guarantee")
		})
	}
}

// BenchmarkSeriesLengthVsFaults (F1): the headline series at n=7, one
// sub-benchmark per fault count.
func BenchmarkSeriesLengthVsFaults(b *testing.B) {
	n := 7
	for k := 0; k <= faults.MaxTolerated(n); k++ {
		rng := rand.New(rand.NewSource(int64(k) * 7))
		fs := faults.RandomVertices(n, k, rng)
		b.Run(fmt.Sprintf("n=%d/Fv=%d", n, k), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			b.ReportMetric(float64(l), "ringlen")
			b.ReportMetric(float64(check.BipartiteUpperBound(n, fs)), "ceiling")
		})
	}
}

// BenchmarkEmbedScaling (F2): construction cost versus dimension at the
// full fault budget; ns/op against n! output entries shows the
// near-linear scaling.
func BenchmarkEmbedScaling(b *testing.B) {
	for n := 5; n <= 9; n++ {
		k := faults.MaxTolerated(n)
		rng := rand.New(rand.NewSource(int64(n)))
		fs := faults.RandomVertices(n, k, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			b.ReportMetric(float64(l), "ringlen")
		})
	}
}

// BenchmarkParityMix (F3): the construction under fault sets split
// across the bipartition; the ceiling metric exposes the beyond-worst-
// case gap.
func BenchmarkParityMix(b *testing.B) {
	n := 7
	k := faults.MaxTolerated(n)
	for j := 0; j <= k; j++ {
		rng := rand.New(rand.NewSource(int64(j) * 13))
		fs := faults.NewSet(n)
		for fs.NumVertices() < j {
			v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if v.Parity(n) == 0 {
				fs.AddVertex(v)
			}
		}
		for fs.NumVertices() < k {
			v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if v.Parity(n) == 1 {
				fs.AddVertex(v)
			}
		}
		b.Run(fmt.Sprintf("even=%d/odd=%d", j, k-j), func(b *testing.B) {
			var l int
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			b.ReportMetric(float64(l), "ringlen")
			b.ReportMetric(float64(check.BipartiteUpperBound(n, fs)), "ceiling")
		})
	}
}

// BenchmarkVerify measures the independent checker on a full-size
// ring, since every embedding pays for one verification pass: an S_8
// ring around n−3 = 5 random vertex faults, verified against the
// paper bound through both entry points — check.Ring over the
// materialized slice (one FeedRun) and check.RingStream over a fresh
// cursor (one Feed per vertex the iterator yields) — each reported per
// ring vertex.
func BenchmarkVerify(b *testing.B) {
	n := 8
	fs := faults.RandomVertices(n, faults.MaxTolerated(n), rand.New(rand.NewSource(1)))
	plan, err := core.Embed(n, fs, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ring := plan.Ring()
	minLen := plan.Result().Guarantee
	g := repro.NewGraph(n)
	for _, leg := range []struct {
		name   string
		verify func() error
	}{
		{"slice", func() error { return check.Ring(g, ring, fs, minLen) }},
		{"cursor", func() error {
			_, err := check.RingStream(g, plan.Cursor().Next, fs, minLen)
			return err
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := leg.verify(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ring)), "ns/vertex")
			b.ReportMetric(float64(len(ring)), "ringlen")
		})
	}
}

// BenchmarkEmbedPath (F4): the longest s-t path extension across
// endpoint parities.
func BenchmarkEmbedPath(b *testing.B) {
	n := 7
	k := faults.MaxTolerated(n)
	rng := rand.New(rand.NewSource(61))
	fs := faults.RandomVertices(n, k, rng)
	var s, tOpp, tSame perm.Code
	for {
		s = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
		if !fs.HasVertex(s) {
			break
		}
	}
	pick := func(parity int) perm.Code {
		for {
			v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if v != s && !fs.HasVertex(v) && v.Parity(n) == parity {
				return v
			}
		}
	}
	tOpp = pick(1 - s.Parity(n))
	tSame = pick(s.Parity(n))

	b.Run("oppositeParity", func(b *testing.B) {
		var l int
		for i := 0; i < b.N; i++ {
			plan, err := core.EmbedPath(n, fs, s, tOpp, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			l = plan.RingLen()
		}
		b.ReportMetric(float64(l), "pathlen")
	})
	b.Run("sameParity", func(b *testing.B) {
		var l int
		for i := 0; i < b.N; i++ {
			plan, err := core.EmbedPath(n, fs, s, tSame, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			l = plan.RingLen()
		}
		b.ReportMetric(float64(l), "pathlen")
	})
}

// BenchmarkRepair (F7): the incremental repair engine. The splice
// sub-benchmarks, n = 6..10, time Plan.Repair on a fault that the fast
// path can absorb (one 24-vertex block re-routed and spliced in place);
// the cold sub-benchmarks, n = 6..8, time a from-scratch Embed of a
// single-fault set at the same dimension. Nothing here asserts a ratio
// between the two; F7 (starsweep -exp F7) reports it as its "splice
// speedup" column. Every n−3 splices use up the fault budget, and a
// fresh plan is embedded outside the timer (about 0.05 s at n = 9 and
// 0.4 s at n = 10), so time the n ≥ 9 legs with a fixed count, e.g.
// -benchtime 200x, rather than for a duration.
func BenchmarkRepair(b *testing.B) {
	for n := 6; n <= 10; n++ {
		b.Run(fmt.Sprintf("splice/n=%d", n), func(b *testing.B) {
			e, err := core.NewEmbedder(n, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			p, err := e.Embed(nil)
			if err != nil {
				b.Fatal(err)
			}
			budget := faults.MaxTolerated(n)
			used := 0
			rng := rand.New(rand.NewSource(int64(n) * 41))
			victim := func() perm.Code {
				// Rejection-sample an on-ring vertex the fast path accepts;
				// fresh plans always have spliceable blocks.
				for {
					v := p.RingAt(rng.Intn(p.RingLen()))
					if p.CanSplice(v) {
						return v
					}
				}
			}
			v := victim()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := p.Repair(v)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Outcome != core.RepairSplice {
					b.Fatalf("iteration %d: outcome %v, want splice", i, rep.Outcome)
				}
				used++
				if used == budget {
					// Budget exhausted: start over with a fresh plan,
					// outside the timer.
					b.StopTimer()
					p, err = e.Embed(nil)
					if err != nil {
						b.Fatal(err)
					}
					used = 0
					v = victim()
					b.StartTimer()
					continue
				}
				b.StopTimer()
				v = victim()
				b.StartTimer()
			}
			b.ReportMetric(float64(p.RingLen()), "ringlen")
		})
		if n > 8 {
			continue
		}
		b.Run(fmt.Sprintf("cold/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n) * 43))
			fs := faults.RandomVertices(n, 1, rng)
			var l int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := core.Embed(n, fs, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := plan.Result()
				l = res.Len()
			}
			b.ReportMetric(float64(l), "ringlen")
		})
	}
}

// BenchmarkCampaign (F5): one full failure campaign on the simulator
// per iteration.
func BenchmarkCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := sim.RunCampaign(sim.CampaignConfig{
			Machine:     sim.Config{N: 6, HopCost: 1, ReembedCostPerBlock: 4, Embed: core.Config{BestEffort: true}},
			Failures:    5,
			LapsBetween: 2,
			Seed:        9,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*rep.Availability, "availability%")
			b.ReportMetric(float64(rep.FinalRing), "ringlen")
		}
	}
}
