package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/ringio"
)

// stream_n9: a big-ring user on skeleton-form plans.
const (
	streamN      = 9
	streamInputs = 256 // pre-generated fault sets; a longer run wraps around
	streamSetups = 5
	streamTailQ  = 0.75
	streamLimit  = 3 * time.Second
	streamPaths  = 64 // Block.Path replays per traced cycle

	streamWhy = "closed loop, 1 caller, streaming S_9 with 6 faults: embed, save through the cursor to memory, load and re-verify; materialized paths bypassed"
)

// streamEnv is the set-up state: one warmed streaming engine, the
// pre-generated fault sets and the reusable in-memory save buffer.
type streamEnv struct {
	eng    *core.Embedder
	inputs []*faults.Set
	next   int
	buf    bytes.Buffer
	rng    *rand.Rand
}

func newStreamEnv(seed int64) (*streamEnv, error) {
	eng, err := core.NewEmbedder(streamN, core.Config{Streaming: true, Workers: 1}) // see benchProcs
	if err != nil {
		return nil, err
	}
	inputs := genStream(seed, streamInputs)
	if err := eng.Warm(); err != nil {
		return nil, err
	}
	return &streamEnv{eng: eng, inputs: inputs, rng: rand.New(rand.NewSource(seed + 1))}, nil
}

// genStream draws count fault sets of n-3 random vertices from seed.
func genStream(seed int64, count int) []*faults.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*faults.Set, count)
	for i := range out {
		out[i] = faults.RandomVertices(streamN, faults.MaxTolerated(streamN), rng)
	}
	return out
}

// cycle runs one embed → save → load → verify pass on fs, spanned under
// parent when traced, and returns the plan it verified.
func (env *streamEnv) cycle(tr *tracer, parent int32, fs *faults.Set) (*core.Plan, error) {
	g := env.eng.Graph()
	sp := tr.begin(lEmbed, parent)
	plan, err := env.eng.Embed(fs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := checkResult(plan.Result(), streamN, fs.NumVertices()); err != nil {
		return nil, err
	}

	sp = tr.begin(lSave, parent)
	env.buf.Reset()
	c := plan.Cursor()
	err = ringio.WriteBinaryStream(&env.buf, streamN, plan.RingLen(), c.Next)
	tr.end(sp)
	if err == nil {
		err = c.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}

	sp = tr.begin(lLoadVerify, parent)
	sr, err := ringio.ReadBinaryStream(bytes.NewReader(env.buf.Bytes()))
	if err == nil {
		err = verifyRing(g, sr.Next, fs, plan.RingLen())
	}
	tr.end(sp)
	if err == nil {
		err = sr.Err()
	}
	if err == nil && sr.Len() != plan.RingLen() {
		err = fmt.Errorf("load: header length %d, plan %d", sr.Len(), plan.RingLen())
	}
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return plan, nil
}

// streamLayers accumulates the per-vertex layer costs of a traced run.
type streamLayers struct {
	cursor, write, read, verify time.Duration
	vertices                    int
	bytes                       int
}

// run executes cycles until window has passed. With a tracer, each
// cycle is followed (outside its timed op) by layer-isolated passes
// over the same ring: a bare cursor drain, ringio write and read and
// check.RingStream fed from memory, and the layer replay of the embed.
func (env *streamEnv) run(o opts, window time.Duration, t *tally, r *endToEndRun, tr *tracer, ls *streamLayers) error {
	start := o.clock.Now()
	for obs.Since(o.clock, start) < window {
		fs := env.inputs[env.next%len(env.inputs)]
		env.next++
		root := tr.begin(lCycle, noParent)
		op := tr.begin(lOp, root)
		c0, t0 := o.cpu.Now(), o.clock.Now()
		plan, err := env.cycle(tr, op, fs)
		d, c := obs.Since(o.clock, t0), obs.Since(o.cpu, c0)
		tr.end(op)
		r.event(t, d, c, err)
		if tr != nil && err == nil {
			t.note(env.layers(tr, root, plan, fs, ls))
		}
		tr.end(root)
	}
	if r.ops == 0 {
		return errNoOps
	}
	return nil
}

// layers times each streaming layer on its own over plan's ring.
func (env *streamEnv) layers(tr *tracer, parent int32, plan *core.Plan, fs *faults.Set, ls *streamLayers) error {
	n := plan.RingLen()
	c := plan.Cursor()
	sp := tr.begin(lCursor, parent)
	count := 0
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		count++
	}
	ls.cursor += tr.end(sp)
	if count != n || c.Err() != nil {
		return fmt.Errorf("cursor: %d of %d vertices, err %v", count, n, c.Err())
	}
	ring := plan.Ring()

	var buf bytes.Buffer
	sp = tr.begin(lRingioWrite, parent)
	err := ringio.WriteBinaryStream(&buf, streamN, n, sliceIter(ring))
	ls.write += tr.end(sp)
	if err != nil {
		return err
	}
	ls.bytes += buf.Len()

	sp = tr.begin(lRingioRead, parent)
	sr, err := ringio.ReadBinaryStream(&buf)
	count = 0
	if err == nil {
		for _, ok := sr.Next(); ok; _, ok = sr.Next() {
			count++
		}
		err = sr.Err()
	}
	ls.read += tr.end(sp)
	if err != nil || count != n {
		return fmt.Errorf("read back %d of %d vertices: %v", count, n, err)
	}

	sp = tr.begin(lCheckStream, parent)
	got, err := check.RingStream(env.eng.Graph(), sliceIter(ring), fs, guarantee(streamN, fs.NumVertices()))
	ls.verify += tr.end(sp)
	if err != nil || got != n {
		return fmt.Errorf("stream check counted %d of %d: %v", got, n, err)
	}
	ls.vertices += n

	_, err = decompose(tr, parent, env.eng.Graph(), fs, false, streamPaths, env.rng.Intn)
	return err
}

// skeletonHeld is the live heap one streaming plan holds.
func (env *streamEnv) skeletonHeld() (int64, int, error) {
	blocks := 0
	held, err := heapHeld(3, func() (*core.Plan, error) {
		p, err := env.eng.Embed(env.inputs[0])
		if err == nil {
			blocks = p.Blocks()
		}
		return p, err
	})
	return held, blocks, err
}

func streamEndToEnd(o opts, t *tally) (*endToEndRun, error) {
	ref := newReference(o.cpu)
	env, setups, err := timedSetups(o.cpu, cpuZero, ref, streamSetups,
		func() (*streamEnv, error) { return newStreamEnv(o.seed) }, func(*streamEnv) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &endToEndRun{setups: setups, tailQ: streamTailQ, limit: streamLimit, ref: ref}
	if err := env.run(o, o.seconds, t, r, nil, nil); err != nil {
		return nil, err
	}
	r.heap, _, err = env.skeletonHeld()
	return r, err
}

func streamTraced(o opts, t *tally, tr *tracer) (map[string]float64, error) {
	env, err := newStreamEnv(o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref := &endToEndRun{limit: streamLimit}
	if err := env.run(o, o.seconds/2, t, ref, nil, nil); err != nil {
		return nil, err
	}
	gc := startGCMeter(o.clock)
	traced := &endToEndRun{limit: streamLimit}
	var ls streamLayers
	if err := env.run(o, o.seconds/2, t, traced, tr, &ls); err != nil {
		return nil, err
	}
	gcRate := gc.perSecond()
	held, blocks, err := env.skeletonHeld()
	if err != nil {
		return nil, err
	}
	perVertex := func(d time.Duration) float64 { return float64(d) / float64(ls.vertices) }
	l := tr.byLayer()
	return map[string]float64{
		"superring.build_r4_ms":         ms(l[lBuildR4].quantile(0.5)),
		"faults.separation_us":          us(l[lSeparation].quantile(0.5)),
		"core.route_ms":                 ms(l[lRoute].quantile(0.5)),
		"core.stream_embed_s":           sec(l[lEmbed].quantile(0.5)),
		"core.cursor_ns_per_vertex":     perVertex(ls.cursor),
		"core.skeleton_bytes_per_block": float64(held) / float64(blocks),
		"pathsearch.block_path_ns":      float64(l[lBlockPath].quantile(0.5)),
		"check.stream_ns_per_vertex":    perVertex(ls.verify),
		"ringio.write_ns_per_vertex":    perVertex(ls.write),
		"ringio.read_ns_per_vertex":     perVertex(ls.read),
		"ringio.bytes_per_vertex":       float64(ls.bytes) / float64(ls.vertices),
		"runtime.gc_cycles_per_s":       gcRate,
		"trace.overhead_share":          overheadShare(traced.lat.mean(), ref.lat.mean()),
	}, nil
}
