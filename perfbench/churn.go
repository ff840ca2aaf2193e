package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pathsearch"
	"repro/internal/perm"
)

// churn_n8: the lifecycle of a degrading S_8 instance.
const (
	churnN           = 8
	churnInitial     = 2    // faults of each cold embed; one count keeps its latency unimodal
	churnCycles      = 4096 // pre-generated lifecycles; a longer run wraps around
	churnSetups      = 9
	churnTailQ       = 0.95 // ~1000 embeds a run; p99 would have too few samples beyond it
	churnLimit       = 100 * time.Millisecond
	churnVerifyEvery = 16 // one plan in this many is re-verified from outside
	churnPaths       = 16 // Block.Path replays per traced embed

	churnWhy = "closed loop, 1 caller, materialized S_8: timed cold Embed of a random 2-fault set, then one random vertex fault per Plan.Repair up to the n-3 budget"
)

// churnCycle is one pre-generated lifecycle: the fault set of the cold
// embed, the faults that then arrive one by one, and whether the final
// plan gets the outside stream verification.
type churnCycle struct {
	initial  *faults.Set
	arrivals []perm.Code
	verify   bool
}

// genChurn draws count lifecycles from seed. Every cycle ends exactly at
// the paper's n-3 budget, with all faults distinct.
func genChurn(seed int64, count int) ([]churnCycle, error) {
	rng := rand.New(rand.NewSource(seed))
	total := perm.Factorial(churnN)
	budget := faults.MaxTolerated(churnN)
	out := make([]churnCycle, count)
	for i := range out {
		all := faults.NewSet(churnN)
		fresh := func() (perm.Code, error) {
			for {
				v := perm.Pack(perm.Unrank(churnN, rng.Intn(total)))
				if !all.HasVertex(v) {
					return v, all.AddVertex(v)
				}
			}
		}
		initial := faults.NewSet(churnN)
		for k := 0; k < churnInitial; k++ {
			v, err := fresh()
			if err != nil {
				return nil, err
			}
			if err := initial.AddVertex(v); err != nil {
				return nil, err
			}
		}
		var arrivals []perm.Code
		for j := initial.NumVertices(); j < budget; j++ {
			v, err := fresh()
			if err != nil {
				return nil, err
			}
			arrivals = append(arrivals, v)
		}
		out[i] = churnCycle{initial: initial, arrivals: arrivals, verify: rng.Intn(churnVerifyEvery) == 0}
	}
	return out, nil
}

// churnEnv is the set-up state: one warmed materialized engine and the
// pre-generated lifecycles.
type churnEnv struct {
	eng    *core.Embedder
	inputs []churnCycle
	next   int // next lifecycle to run
	rng    *rand.Rand
	// repairs holds Plan.Repair latencies. They are checked and logged
	// but are not an end-to-end metric: a splice is a ~50µs memmove
	// whose median drifts by a fifth between runs on the reference box.
	repairs samples
}

func newChurnEnv(seed int64) (*churnEnv, error) {
	eng, err := core.NewEmbedder(churnN, core.Config{Workers: 1}) // one routing worker: see benchProcs
	if err != nil {
		return nil, err
	}
	inputs, err := genChurn(seed, churnCycles)
	if err != nil {
		return nil, err
	}
	if err := eng.Warm(); err != nil {
		return nil, err
	}
	return &churnEnv{eng: eng, inputs: inputs, rng: rand.New(rand.NewSource(seed + 1))}, nil
}

// churnLayers accumulates what only a traced run measures.
type churnLayers struct {
	covered, embedded  time.Duration // layer-call time vs Embed time
	allocs, allocBytes []float64     // heap allocations per embed: objects, bytes
	hits               int64
	embeds             int
	splices, rebuilds  int
}

// run executes lifecycles until window has passed. Every cold embed is
// one timed operation in r; every repair is checked and its latency
// kept in env.repairs. With a tracer it also spans each engine call and
// replays each embed layer by layer (after the embed, off the clock)
// into ls.
func (env *churnEnv) run(o opts, window time.Duration, t *tally, r *endToEndRun, tr *tracer, ls *churnLayers) error {
	g := env.eng.Graph()
	start := o.clock.Now()
	for obs.Since(o.clock, start) < window {
		in := &env.inputs[env.next%len(env.inputs)]
		env.next++
		root := tr.begin(lCycle, noParent)
		nv := in.initial.NumVertices()

		var a0 allocMark
		var h0 int64
		if tr != nil {
			a0 = readAllocs()
			h0, _, _ = pathsearch.Canon.CacheStats()
		}
		c0, t0 := o.cpu.Now(), o.clock.Now()
		plan, err := env.eng.Embed(in.initial)
		d, c := obs.Since(o.clock, t0), obs.Since(o.cpu, c0)
		tr.put(lEmbed, root, t0, t0.Add(d))
		if err == nil {
			err = checkResult(plan.Result(), churnN, nv)
		}
		r.event(t, d, c, err)
		if plan == nil {
			tr.end(root)
			continue
		}
		if tr != nil {
			a1 := readAllocs()
			h1, _, _ := pathsearch.Canon.CacheStats()
			ls.allocs = append(ls.allocs, float64(a1.objects-a0.objects))
			ls.allocBytes = append(ls.allocBytes, float64(a1.bytes-a0.bytes))
			ls.hits += h1 - h0
			ls.embeds++
			covered, err := decompose(tr, root, g, in.initial, true, churnPaths, env.rng.Intn)
			if t.note(err) {
				ls.covered += covered
				ls.embedded += d
			}
		}

		for _, v := range in.arrivals {
			nv++
			t0 := o.clock.Now()
			rep, err := plan.Repair(v)
			d := obs.Since(o.clock, t0)
			if tr != nil && err == nil {
				l := lRepairOther
				switch rep.Outcome {
				case core.RepairSplice:
					l = lRepairSplice
					ls.splices++
				case core.RepairRebuild:
					l = lRepairRebuild
					ls.rebuilds++
				}
				tr.put(l, root, t0, t0.Add(d))
			}
			if !t.note(checkRepair(rep, err, plan.Result(), churnN, nv)) {
				break
			}
			env.repairs.add(d)
		}
		if in.verify {
			t.note(verifyRing(g, plan.Cursor().Next, plan.Faults(), plan.RingLen()))
		}
		tr.end(root)
	}
	if r.ops == 0 {
		return errNoOps
	}
	return nil
}

func churnEndToEnd(o opts, t *tally) (*endToEndRun, error) {
	ref := newReference(o.cpu)
	env, setups, err := timedSetups(o.cpu, cpuZero, ref, churnSetups,
		func() (*churnEnv, error) { return newChurnEnv(o.seed) }, func(*churnEnv) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &endToEndRun{setups: setups, tailQ: churnTailQ, limit: churnLimit, ref: ref}
	if err := env.run(o, o.seconds, t, r, nil, nil); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: churn_n8: %d repairs; p50 %.4g p90 %.4g p99 %.4g ms\n", env.repairs.n(),
		ms(env.repairs.quantile(0.5)), ms(env.repairs.quantile(0.9)), ms(env.repairs.quantile(0.99)))
	r.heap, err = heapHeld(3, func() (*core.Plan, error) { return env.eng.Embed(env.inputs[0].initial) })
	return r, err
}

func churnTraced(o opts, t *tally, tr *tracer) (map[string]float64, error) {
	env, err := newChurnEnv(o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	_, m0, _ := pathsearch.Canon.CacheStats()
	ref := &endToEndRun{limit: churnLimit}
	if err := env.run(o, o.seconds/2, t, ref, nil, nil); err != nil {
		return nil, err
	}
	gc := startGCMeter(o.clock)
	traced := &endToEndRun{limit: churnLimit}
	var ls churnLayers
	if err := env.run(o, o.seconds/2, t, traced, tr, &ls); err != nil {
		return nil, err
	}
	_, m1, _ := pathsearch.Canon.CacheStats()
	l := tr.byLayer()
	out := map[string]float64{
		"faults.separation_us":            us(l[lSeparation].quantile(0.5)),
		"superring.build_r4_ms":           ms(l[lBuildR4].quantile(0.5)),
		"core.route_ms":                   ms(l[lRoute].quantile(0.5)),
		"core.embed_ms":                   ms(l[lEmbed].quantile(0.5)),
		"core.allocs_per_embed":           medianFloat(ls.allocs),
		"core.alloc_mib_per_embed":        medianFloat(ls.allocBytes) / (1 << 20),
		"core.repair_splice_us":           us(l[lRepairSplice].quantile(0.5)),
		"core.repair_rebuild_ms":          ms(l[lRepairRebuild].quantile(0.5)),
		"pathsearch.block_path_ns":        float64(l[lBlockPath].quantile(0.5)),
		"pathsearch.cache_hits_per_embed": float64(ls.hits) / float64(ls.embeds),
		"pathsearch.cache_misses":         float64(m1 - m0),
		"check.ring_ms":                   ms(l[lCheckRing].quantile(0.5)),
		"runtime.gc_cycles_per_s":         gc.perSecond(),
		"trace.overhead_share":            overheadShare(traced.lat.mean(), ref.lat.mean()),
	}
	if ls.embedded > 0 {
		out["core.embed_unattributed_share"] = 1 - float64(ls.covered)/float64(ls.embedded)
	}
	if on := ls.splices + ls.rebuilds; on > 0 {
		out["core.repair_splice_share"] = float64(ls.splices) / float64(on)
	}
	return out, nil
}
