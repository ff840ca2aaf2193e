package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/pathsearch"
)

// instr is the resolved instrumentation handle of one embedding run:
// every metric looked up once, so the hot paths touch only atomics. A
// nil *instr is the disabled state — each method is a nil test and a
// return, keeping the block-routing loop allocation-free (certified by
// TestObsDisabledAllocs and BenchmarkObsDisabled).
type instr struct {
	reg *obs.Registry
	op  *obs.Op // the run's operation context; set by bind, never nil there

	backtracks *obs.Counter
	blocks     *obs.Counter

	// Labeled families: per-n degradation curves come out of snapshots
	// as labeled series instead of one aggregate (ISSUE 9). nLabel is
	// the run's star-graph dimension, rendered once.
	nLabel  string
	embeds  *obs.CounterVec // core.embed.completed{n,mode}
	repairs *obs.CounterVec // core.repair.outcome{n,outcome}

	hits0, misses0, bypasses0 int64
}

// newInstr resolves the registry's core metrics for one run on S_n;
// nil in, nil out.
func newInstr(r *obs.Registry, n int) *instr {
	if r == nil {
		return nil
	}
	in := &instr{
		reg:        r,
		backtracks: r.Counter("core.junction.backtracks"),
		blocks:     r.Counter("core.route.blocks"),
		nLabel:     strconv.Itoa(n),
		embeds:     r.CounterVec("core.embed.completed", "n", "mode"),
		repairs:    r.CounterVec("core.repair.outcome", "n", "outcome"),
	}
	// Materialize the cache counters up front so every snapshot carries
	// them, then baseline against the process-global canonical cache.
	r.Counter("core.s4.cache_hits")
	r.Counter("core.s4.cache_misses")
	r.Counter("core.s4.cache_bypasses")
	in.hits0, in.misses0, in.bypasses0 = pathsearch.Canon.CacheStats()
	return in
}

// bind attaches the run's operation context. Every phase span opened
// through in.span afterwards is a child of the operation's root, and
// event-log records carry its trace id.
func (in *instr) bind(op *obs.Op) {
	if in == nil {
		return
	}
	in.op = op
}

// span opens a phase span ("core.phase.*") under the bound operation;
// zero Span when disabled.
func (in *instr) span(name string) obs.Span {
	if in == nil {
		return obs.Span{}
	}
	if in.op != nil {
		return in.op.Span(name)
	}
	return in.reg.Span(name)
}

// fail ends a failed operation. Owned ops (created by this layer) end
// through Op.Fail, which closes the root span and fires the flight
// recorder; caller-owned ops only get the error noted — the owner
// decides when the root span closes.
func (in *instr) fail(op *obs.Op, owned bool, source string, err error) {
	if in == nil {
		return
	}
	if owned {
		op.Fail(source, err)
		return
	}
	in.reg.NoteError(op.Trace(), op.SpanID(), source, err)
}

// done ends a successful owned operation; caller-owned ops pass through.
func (in *instr) done(op *obs.Op, owned bool) {
	if in != nil && owned {
		op.Done()
	}
}

// finish folds the S4 cache activity of this run into the registry.
// The canonical cache is shared by every embedding in the process, so
// deltas against the baseline taken at newInstr are recorded, not
// absolutes.
func (in *instr) finish() {
	if in == nil {
		return
	}
	h, m, b := pathsearch.Canon.CacheStats()
	in.reg.Counter("core.s4.cache_hits").Add(h - in.hits0)
	in.reg.Counter("core.s4.cache_misses").Add(m - in.misses0)
	in.reg.Counter("core.s4.cache_bypasses").Add(b - in.bypasses0)
	in.hits0, in.misses0, in.bypasses0 = h, m, b
}

// repair bumps one of the repair-outcome counters
// (core.repair.{splices,rebuilds,avoided}) plus the labeled
// core.repair.outcome family, which breaks the same tally down by
// dimension n. Resolved lazily: repairs are rare next to block
// routing, and plain embedding runs then never materialize the repair
// counters in their snapshots.
func (in *instr) repair(outcome string) {
	if in == nil {
		return
	}
	in.reg.Counter("core.repair." + outcome).Inc()
	in.repairs.With("n", in.nLabel, "outcome", outcome).Inc()
}

// embedCompleted counts one successful embedding in the labeled
// core.embed.completed family, split by dimension and by whether the
// run stayed within the paper's fault budget (mode=guaranteed) or
// degraded best-effort past it.
func (in *instr) embedCompleted(guaranteed bool) {
	if in == nil {
		return
	}
	mode := "guaranteed"
	if !guaranteed {
		mode = "besteffort"
	}
	in.embeds.With("n", in.nLabel, "mode", mode).Inc()
}

// junctionBacktrack sits inside the junction search loop, so both the
// disabled (nil receiver) and enabled (atomic add) paths must stay
// allocation-free; hotalloc enforces it.
//
//starlint:hotpath
func (in *instr) junctionBacktrack() {
	if in == nil {
		return
	}
	in.backtracks.Inc()
}

// skeleton sets core.skeleton.bytes_per_block: the bytes a plan's
// skeleton retains per block, after every embed and repair.
func (in *instr) skeleton(bytesPerBlock int64) {
	if in == nil {
		return
	}
	in.reg.Gauge("core.skeleton.bytes_per_block").Set(bytesPerBlock)
}

// blocksRouted counts the blocks of one finished routing run
// (core.route.blocks).
func (in *instr) blocksRouted(m int) {
	if in == nil {
		return
	}
	in.blocks.Add(int64(m))
}
