package core

import (
	"errors"
	"fmt"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/star"
)

// Embedder is a session-oriented handle on one star graph S_n: it owns
// the substrate shared by every embedding of that dimension (the graph
// and the configuration) and turns fault sets into Plans. It holds no
// state that one embedding leaves for the next: the S4 block routes an
// embed reads come from pathsearch's committed step-word tables or a
// search on the call. Create one per dimension and reuse it across
// runs; the one-shot Embed function remains as a convenience wrapper.
type Embedder struct {
	n   int
	g   star.Graph
	cfg Config
}

// NewEmbedder validates the dimension and returns an engine for S_n.
func NewEmbedder(n int, cfg Config) (*Embedder, error) {
	if n < 3 || n > perm.MaxN {
		return nil, fmt.Errorf("core: dimension %d out of range [3,%d]", n, perm.MaxN)
	}
	return &Embedder{n: n, g: star.New(n), cfg: cfg}, nil
}

// N returns the engine's dimension.
func (e *Embedder) N() int { return e.n }

// Graph returns the underlying star graph.
func (e *Embedder) Graph() star.Graph { return e.g }

// Config returns the engine's configuration.
func (e *Embedder) Config() Config { return e.cfg }

// Reuse returns an engine for the same dimension under a different
// configuration, sharing the immutable substrate (the graph). Pools
// that keep one warmed Embedder per dimension use it to serve the
// occasional request with divergent options (best-effort) without
// paying NewEmbedder validation or holding a second pool.
func (e *Embedder) Reuse(cfg Config) *Embedder {
	return &Embedder{n: e.n, g: e.g, cfg: cfg}
}

// Warm runs one fault-free embedding and discards the plan. Pools call
// it at startup, before they report ready, so the first real request
// is not the process's first embed (whose code and data pages are not
// yet touched). It fills no cache: no block route depends on what an
// earlier embed asked.
func (e *Embedder) Warm() error {
	_, err := e.Embed(nil)
	return err
}

// Embed constructs a healthy ring in S_n avoiding the given faults and
// returns it as a live Plan. The Plan owns a private clone of fs, so the
// caller may keep mutating its set; new faults reach the Plan through
// Repair. Preconditions and errors match the package-level Embed.
//
// Embed runs as its own traced operation (a fresh core.op.embed trace);
// callers that already hold an operation context use EmbedOp.
func (e *Embedder) Embed(fs *faults.Set) (*Plan, error) {
	return e.EmbedOp(nil, fs)
}

// EmbedOp is Embed under an existing operation context: every phase
// span and event-log record of the run carries op's trace id, so a
// caller spanning several engine calls (the simulator, a repair's
// rebuild) gets one causal timeline. A nil op opens a fresh
// core.op.embed operation, owned by the call: ended on success, failed
// into the flight recorder on error.
func (e *Embedder) EmbedOp(op *obs.Op, fs *faults.Set) (*Plan, error) {
	return e.embed(op, fs, nil)
}

// embed is the one embedding driver: it builds, verifies and
// instruments a ring (ends nil) or a longest path from ends[0] to
// ends[1]. The two shapes differ only in the endpoint checks, the
// guarantee, the construction step and the verifier's close.
func (e *Embedder) embed(op *obs.Op, fs *faults.Set, ends *[2]perm.Code) (*Plan, error) {
	n := e.n
	if fs == nil {
		fs = faults.NewSet(n)
	} else {
		if fs.N() != n {
			return nil, fmt.Errorf("core: fault set is for S_%d, embedding in S_%d", fs.N(), n)
		}
		fs = fs.Clone()
	}
	in := newInstr(e.cfg.Obs, n)
	owned := op == nil
	if owned {
		op = e.cfg.Obs.StartOp("core.op.embed")
	}
	in.bind(op)

	var err error
	if ends != nil {
		s, t := ends[0], ends[1]
		switch {
		case !s.Valid(n) || !t.Valid(n) || s == t:
			err = fmt.Errorf("%w: need two distinct vertices of S_%d", ErrBadEndpoints, n)
		case fs.HasVertex(s) || fs.HasVertex(t):
			err = fmt.Errorf("%w: endpoint is faulty", ErrBadEndpoints)
		}
	}
	nv, ne := fs.NumVertices(), fs.NumEdges()
	withinBudget := nv+ne <= faults.MaxTolerated(n)
	if err == nil && !withinBudget && !e.cfg.BestEffort {
		err = fmt.Errorf("%w: |Fv|=%d, |Fe|=%d, n=%d", ErrBudget, nv, ne, n)
	}
	if err != nil {
		in.fail(op, owned, "core.embed", err)
		return nil, err
	}

	res := &Result{
		N:            n,
		VertexFaults: nv,
		EdgeFaults:   ne,
		Guarantee:    perm.Factorial(n) - 2*nv,
		Guaranteed:   withinBudget,
	}
	if ends == nil {
		res.UpperBound = check.BipartiteUpperBound(n, fs)
	} else if ends[0].Parity(n) == ends[1].Parity(n) {
		res.Guarantee--
	}

	total := in.span("core.phase.total")

	// The whole construction (and its self-verification) runs under the
	// phase=embed pprof label, so CPU profiles captured while embedding —
	// -cpuprofile or a live /debug/pprof/profile scrape — attribute their
	// samples to it. The parallel routing workers inherit the label.
	var p *Plan
	prof.Do("embed", func() {
		var sk *skeleton
		switch {
		case ends == nil && n <= 4:
			sk, err = embedSmall(n, fs)
		case ends == nil:
			sk, err = embedLarge(res, fs, e.cfg, in)
		case n <= 4:
			sk, err = embedPathSmall(res, fs, ends[0], ends[1])
		default:
			sk, err = embedPathLarge(res, fs, ends[0], ends[1], e.cfg, in)
		}
		if err != nil {
			return
		}
		res.Length = sk.ringLen()
		// Self-verification reads the ring the way every consumer does:
		// through a cursor replaying the skeleton block by block, into the
		// independent stream verifier.
		p = newPlan(e, res, fs, sk, ends)
		vspan := in.span("core.phase.verify")
		verr := p.verify()
		vspan.End()
		if verr != nil {
			err = fmt.Errorf("core: self-verification failed: %w", verr)
		}
	})
	total.End()
	if err != nil {
		in.fail(op, owned, "core.embed", err)
		return nil, err
	}
	in.embedCompleted(res.Guaranteed)
	in.skeleton(p.sk.bytesPerBlock())
	if op.Enabled(obs.LevelInfo) {
		op.Log(obs.LevelInfo, "core.embed",
			obs.F("n", n), obs.F("vertex_faults", nv), obs.F("edge_faults", ne),
			obs.F("ring", res.Len()), obs.F("guarantee", res.Guarantee))
	}
	in.done(op, owned)
	return p, nil
}

// Plan is a live embedding: the verified Result plus the skeleton that
// produced it — every block's routed entry and the step word of its
// path, the faults it avoids, one ring-position checkpoint per 64
// blocks and the R4's refinement record, which locates a vertex's
// block. A plan from EmbedPath holds an open ring, a longest s-t path,
// read through the same views; only rings repair. The skeleton is the
// ring's only representation: every view of the cycle (Cursor, Ring,
// RingAt, OnRing) replays block segments from it on demand, so a plan
// holds O(#blocks) memory whatever n is — 17 bytes per block plus a
// side table for the faulty blocks. It is also what makes Repair
// incremental: a new fault that lands in a previously healthy block
// invalidates exactly one 24-vertex segment, which is re-routed and
// spliced by one update of the checkpoints, without touching the other
// n!/24-1 blocks.
type Plan struct {
	e   *Embedder
	res *Result
	fs  *faults.Set // owned; Repair mutates it

	// sk.tree nil marks the small-n direct embeddings (n <= 4): one
	// block, no block lookup, every repair is a rebuild.
	sk *skeleton
	// ends holds a path plan's source and target; nil for a ring.
	ends *[2]perm.Code

	// gen counts ring mutations (splices and rebuilds). Cursors snapshot
	// it at creation and refuse to refill once it moves on, so a stale
	// iterator fails loudly instead of emitting a pre-repair cycle.
	gen int
	// seg[:segLen] caches the most recently replayed block segment,
	// block segBlock, for the random-access paths (RingAt, OnRing);
	// segBlock is -1 when the cache is empty or invalidated. segStart is
	// the block's first ring position, or -1 until RingAt has found it.
	seg      [blockOrder]perm.Code
	segLen   int
	segBlock int
	segStart int

	broken bool // a failed rebuild poisons the plan
}

func newPlan(e *Embedder, res *Result, fs *faults.Set, sk *skeleton, ends *[2]perm.Code) *Plan {
	return &Plan{e: e, res: res, fs: fs, sk: sk, ends: ends, segBlock: -1, segStart: -1}
}

// verify runs the independent stream verifier over a fresh cursor,
// one replayed block segment per FeedRun, against the paper bound when
// the plan is within budget, and demands that the cursor emit exactly
// the Result's length. A ring must close; a path must run from its
// source to its target. It is the plan's one verification pass; the
// starring CLI reports its verdict.
func (p *Plan) verify() error {
	minLen := 0
	if p.res.Guaranteed {
		minLen = p.res.Guarantee
	}
	var sv *check.StreamVerifier
	if p.ends == nil {
		sv = check.NewStreamVerifier(p.e.g, p.fs)
	} else {
		sv = check.NewPathVerifier(p.e.g, p.fs, p.ends[0], p.ends[1])
	}
	c := p.Cursor()
	for run := c.NextRun(); run != nil; run = c.NextRun() {
		if err := sv.FeedRun(run); err != nil {
			return err
		}
	}
	err := sv.Close(minLen)
	if err == nil && sv.Count() != p.res.Length {
		err = fmt.Errorf("%w: emitted %d vertices, embedding reports %d", check.ErrInvalidRing, sv.Count(), p.res.Length)
	}
	return err
}

// Result returns the plan's current verified embedding. The pointer is
// live: Repair updates it in place.
func (p *Plan) Result() *Result { return p.res }

// N returns the plan's dimension.
func (p *Plan) N() int { return p.e.n }

// RingLen returns the current ring length.
func (p *Plan) RingLen() int { return p.res.Len() }

// RingAt returns the i-th ring vertex (0 <= i < RingLen). A position
// inside the cached segment is read straight from it, so sequential or
// block-local access needs no search; otherwise the owning block is
// found by a descent of the offset checkpoints and a scan of at most
// 64 block lengths, and just that block's <= 24-vertex path is
// replayed.
func (p *Plan) RingAt(i int) perm.Code {
	if p.segStart < 0 || i < p.segStart || i >= p.segStart+p.segLen {
		k, start := p.sk.find(i)
		p.segment(k)
		p.segStart = start
	}
	return p.seg[i-p.segStart]
}

// Ring returns a copy of the current ring, built by draining a fresh
// cursor; mutating it cannot corrupt the plan. This materializes the
// full cycle — large-n callers should stay on Cursor, but small-n
// tooling and the baselines' comparisons want the flat slice.
func (p *Plan) Ring() []perm.Code {
	out := make([]perm.Code, 0, p.RingLen())
	c := p.Cursor()
	for {
		v, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// segment returns block k's current path in ring order, replayed from
// the skeleton (one-entry cache).
func (p *Plan) segment(k int) []perm.Code {
	if p.segBlock != k {
		p.segLen, p.segBlock, p.segStart = p.sk.replay(k, &p.seg), k, -1
	}
	return p.seg[:p.segLen]
}

// Faulty reports whether v is a known-faulty vertex.
func (p *Plan) Faulty(v perm.Code) bool { return p.fs.HasVertex(v) }

// Faults returns a snapshot clone of the plan's fault set.
func (p *Plan) Faults() *faults.Set { return p.fs.Clone() }

// Blocks returns the number of R4 blocks (zero for n <= 4).
func (p *Plan) Blocks() int { return p.res.Blocks }

// OnRing reports whether v currently sits on the ring: a block lookup
// of one digit per partition (the walk of the R4's refinement record,
// n−4 levels) plus a scan of that block's replayed <= 24-vertex
// segment (for n <= 4, the one stored segment is the whole ring). A
// code that is not a vertex of S_n is never on the ring.
func (p *Plan) OnRing(v perm.Code) bool {
	if !v.Valid(p.e.n) {
		return false
	}
	k := 0
	if p.sk.tree != nil {
		if k = p.sk.blockOf(v); k < 0 {
			return false
		}
	}
	for _, u := range p.segment(k) {
		if u == v {
			return true
		}
	}
	return false
}

// RepairOutcome classifies what Repair had to do.
type RepairOutcome int

const (
	// RepairNoop: the vertex was already faulty; nothing changed.
	RepairNoop RepairOutcome = iota
	// RepairAvoided: the vertex was off-ring (a spare), so the existing
	// ring is still healthy; only the fault accounting changed.
	RepairAvoided
	// RepairSplice: the fast path — one block re-routed via Lemma 4 and
	// its segment spliced in place; the ring shrank by exactly 2.
	RepairSplice
	// RepairRebuild: the skeleton was invalidated; a full re-embedding
	// replaced the plan.
	RepairRebuild
)

// String implements fmt.Stringer.
func (o RepairOutcome) String() string {
	switch o {
	case RepairNoop:
		return "noop"
	case RepairAvoided:
		return "avoided"
	case RepairSplice:
		return "splice"
	case RepairRebuild:
		return "rebuild"
	}
	return fmt.Sprintf("RepairOutcome(%d)", int(o))
}

// RepairReport describes one Repair call.
type RepairReport struct {
	Outcome RepairOutcome
	// Block is the re-routed block index (splice only; -1 otherwise).
	Block int
	// SegmentStart/SegmentOldLen frame the replaced segment in the
	// pre-repair ring (splice only); the new segment is two shorter.
	SegmentStart  int
	SegmentOldLen int
	// OldLen and NewLen are the ring lengths before and after.
	OldLen, NewLen int
	// BlocksRerouted is the work actually done: 0 (noop/avoided), 1
	// (splice), or the full block count (rebuild).
	BlocksRerouted int
}

// ErrPlanBroken reports Repair being called on a plan whose last rebuild
// failed; its ring is stale and must not be used.
var ErrPlanBroken = errors.New("core: plan is broken (a previous rebuild failed)")

// Repair folds one newly failed vertex into the plan. The fast path
// applies when the fault lands in a previously healthy block and leaves
// the skeleton's invariants intact — (P1) still holds (the block gains
// its first fault, so the Lemma 2 separation survives), (P3) still holds
// (the vertex is not a junction endpoint and the neighbor blocks stay
// fault-free) — in which case only that block is re-routed via Lemma 4
// to a path two vertices shorter and the segment is spliced in place:
// O(24-vertex search + splice) instead of a full O(n!) re-embedding.
// Only the spliced segment is re-verified (the junction edges and every
// other block are untouched); set Config.VerifyRepairs to re-run the
// full stream verification after every successful splice.
//
// When the fast path does not apply — off-skeleton dimensions, a second
// fault in the same block, a junction vertex, an adjacent faulty block,
// or a failed block search — Repair falls back to a full re-embedding of
// the accumulated fault set.
//
// A vertex beyond the paper's budget returns ErrBudget without mutating
// the plan (unless BestEffort). A fault landing off-ring returns
// RepairAvoided: the ring is untouched and still meets the new, smaller
// guarantee. A path plan is never repaired: Repair returns an error and
// leaves it as it is.
func (p *Plan) Repair(v perm.Code) (RepairReport, error) {
	return p.RepairOp(nil, v)
}

// RepairOp is Repair under an existing operation context (see EmbedOp
// for the contract). A nil op opens a fresh core.op.repair operation
// owned by the call.
func (p *Plan) RepairOp(op *obs.Op, v perm.Code) (RepairReport, error) {
	rep := RepairReport{Block: -1, OldLen: p.res.Len()}
	if p.ends != nil {
		return rep, errors.New("core: a path plan cannot be repaired")
	}
	if p.broken {
		return rep, ErrPlanBroken
	}
	if p.fs.HasVertex(v) {
		rep.Outcome = RepairNoop
		rep.NewLen = rep.OldLen
		return rep, nil
	}

	in := newInstr(p.e.cfg.Obs, p.e.n)
	owned := op == nil
	if owned {
		op = p.e.cfg.Obs.StartOp("core.op.repair")
	}
	in.bind(op)

	n := p.e.n
	nv, ne := p.fs.NumVertices(), p.fs.NumEdges()
	if nv+1+ne > faults.MaxTolerated(n) && !p.e.cfg.BestEffort {
		err := fmt.Errorf("%w: |Fv|=%d, |Fe|=%d, n=%d", ErrBudget, nv+1, ne, n)
		in.fail(op, owned, "core.repair", err)
		return rep, err
	}
	if err := p.fs.AddVertex(v); err != nil {
		in.fail(op, owned, "core.repair", err)
		return rep, err
	}
	p.res.VertexFaults++
	p.res.Guarantee = perm.Factorial(n) - 2*p.res.VertexFaults
	p.res.Guaranteed = p.res.VertexFaults+p.res.EdgeFaults <= faults.MaxTolerated(n)
	p.res.UpperBound = check.BipartiteUpperBound(n, p.fs)

	if !p.OnRing(v) {
		// A spare died: the ring never visited it, so it is still healthy
		// and its unchanged length still meets the reduced guarantee.
		in.repair("avoided")
		rep.Outcome = RepairAvoided
		rep.NewLen = rep.OldLen
		p.repaired(in, op, owned, v, rep)
		return rep, nil
	}

	if k, ok := p.spliceTarget(v); ok {
		span := in.span("core.phase.repair_splice")
		var err error
		prof.Do("splice", func() { err = p.splice(k, v) })
		span.End()
		if err == nil {
			in.repair("splices")
			rep.Outcome = RepairSplice
			rep.Block = k
			rep.SegmentStart = p.sk.offset(k)
			rep.SegmentOldLen = p.sk.steps[k].Len() + 2
			rep.NewLen = p.res.Len()
			rep.BlocksRerouted = 1
			p.repaired(in, op, owned, v, rep)
			return rep, nil
		}
		// Lemma 4 covers the strict regime, so a failed splice should
		// only happen under BestEffort degradation; fall through.
	}

	span := in.span("core.phase.repair_rebuild")
	var err error
	// The nested Embed re-labels its own extent phase=embed; samples in
	// the rebuild bookkeeping around it stay phase=rebuild.
	prof.Do("rebuild", func() { err = p.rebuild(op) })
	span.End()
	if err != nil {
		// The nested EmbedOp already noted the failure against this trace
		// (or the plan is poisoned); just close an owned root span.
		in.done(op, owned)
		return rep, err
	}
	in.repair("rebuilds")
	rep.Outcome = RepairRebuild
	rep.NewLen = p.res.Len()
	rep.BlocksRerouted = p.res.Blocks
	p.repaired(in, op, owned, v, rep)
	return rep, nil
}

// repaired closes a successful repair: it sets the skeleton gauge,
// emits the structured core.repair event when an event log is attached
// — which vertex failed, what Repair did, and what it cost, under the
// bound operation's trace id — and ends an owned operation.
func (p *Plan) repaired(in *instr, op *obs.Op, owned bool, v perm.Code, rep RepairReport) {
	in.skeleton(p.sk.bytesPerBlock())
	if in != nil && in.op.Enabled(obs.LevelInfo) {
		in.op.Log(obs.LevelInfo, "core.repair",
			obs.F("vertex", v.StringN(p.e.n)),
			obs.F("outcome", rep.Outcome.String()),
			obs.F("blocks_rerouted", rep.BlocksRerouted),
			obs.F("old_len", rep.OldLen),
			obs.F("new_len", rep.NewLen))
	}
	in.done(op, owned)
}

// CanSplice reports whether a failure of v would take the splice fast
// path, without mutating the plan. (Off-ring and already-faulty vertices
// report false: those repairs never re-route anything. So does a code
// that is not a vertex of S_n, which OnRing rejects before any block
// lookup, and every vertex of a path plan, which never repairs.)
func (p *Plan) CanSplice(v perm.Code) bool {
	if p.broken || p.ends != nil || p.fs.HasVertex(v) || !p.OnRing(v) {
		return false
	}
	_, ok := p.spliceTarget(v)
	return ok
}

// spliceTarget re-checks the skeleton invariants incrementally for a
// fault at v and returns the block to re-route when they all hold:
//
//   - the block was fault-free, so it gains its first fault and (P1) —
//     hence the Lemma 2 separation — survives;
//   - v is not the block's entry or exit junction endpoint, and the two
//     neighbor blocks carry no faults, so the Lemma 3 spread/healthy-
//     junction discipline ((P3)) survives;
//   - the block's current path is long enough to shed two vertices.
func (p *Plan) spliceTarget(v perm.Code) (int, bool) {
	sk := p.sk
	if sk.tree == nil {
		return -1, false
	}
	k := sk.blockOf(v)
	if k < 0 || sk.holdsFault(k) {
		return -1, false
	}
	if v == sk.entry[k] || v == sk.exit(k) {
		return -1, false
	}
	m := sk.blocks()
	for _, j := range [2]int{(k - 1 + m) % m, (k + 1) % m} {
		if j != k && sk.holdsFault(j) {
			return -1, false
		}
	}
	if sk.steps[k].Len() < 4 {
		return -1, false
	}
	return k, true
}

// splice re-routes block k around its new fault v — Lemma 4 guarantees a
// path two vertices shorter between the unchanged entry and exit — and
// splices the segment into the ring in place. Only the new segment is
// verified, replayed from its step word into a stack array: the
// junction edges are untouched (same healthy endpoints, and Repair adds
// no edge faults) and every other segment is unchanged.
func (p *Plan) splice(k int, v perm.Code) error {
	sk := p.sk
	entry, exit := sk.entry[k], sk.exit(k)
	target := sk.steps[k].Len() - 2
	block := pathsearch.BlockAt(entry, sk.free)
	steps, ok := block.Route(pathsearch.PathSpec{
		From: entry, To: exit,
		AvoidV: []perm.Code{v},
		Target: target,
	})
	if !ok {
		return fmt.Errorf("core: block %d admits no %d-vertex detour around the new fault", k, target)
	}
	var detour [blockOrder]perm.Code
	if err := check.Path(p.e.g, detour[:steps.Replay(entry, sk.free, &detour)], p.fs, entry, exit, target); err != nil {
		return fmt.Errorf("core: repair splice self-check: %w", err)
	}

	sk.addVertexFault(k, v)
	p.applySplice(k, steps)
	p.res.FaultyBlocks++

	if p.e.cfg.VerifyRepairs {
		if err := p.verify(); err != nil {
			// The splice is already applied; the rebuild fallback replaces
			// the whole plan, so the inconsistent state cannot leak.
			return fmt.Errorf("core: repair verification failed: %w", err)
		}
	}
	return nil
}

// applySplice commits block k's re-routed path, whose side-table entry
// is already recorded: it stores the new step word and takes the
// length it shed off the offset checkpoints (skeleton.resize) and the
// ring length; the path itself stays implicit and is replayed on the
// next read. The generation counter advances, expiring open cursors,
// and the one-entry segment cache is dropped. This is the repair fast
// path's whole per-step ring surgery — one Fenwick update of
// O(log(#blocks/64)) words and no allocation, which hotalloc enforces
// against refactors.
//
//starlint:hotpath
func (p *Plan) applySplice(k int, steps pathsearch.Steps) {
	delta := p.sk.steps[k].Len() - steps.Len()
	p.sk.steps[k] = steps
	p.sk.resize(k, delta)
	p.res.Length -= delta
	p.gen++
	p.segBlock, p.segStart = -1, -1
}

// rebuild replaces the plan with a cold embedding of the accumulated
// fault set, joined to the repair's operation context so the whole
// fallback shows up under one trace. On failure the plan is poisoned:
// its ring predates the fault that triggered the rebuild.
func (p *Plan) rebuild(op *obs.Op) error {
	np, err := p.e.EmbedOp(op, p.fs)
	if err != nil {
		p.broken = true
		return err
	}
	// Carry the mutation counter forward so cursors opened on the old
	// ring observe the rebuild as a generation change, not a fresh plan.
	np.gen = p.gen + 1
	*p = *np
	return nil
}
