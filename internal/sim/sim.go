// Package sim is a deterministic discrete-time simulator for a
// star-graph multiprocessor whose processes communicate over an
// embedded ring. It executes ring protocols hop by hop on the physical
// topology (every hop is checked against real star-graph adjacency and
// the live fault set), injects fail-stop vertex faults at runtime, and
// repairs the ring online through the paper's algorithm — accounting
// for the downtime each repair costs.
//
// The simulator is the operational counterpart of the paper's
// motivation: a ring-structured computation that keeps running as
// processors die, paying exactly two ring slots per failure while the
// fault budget lasts. The machine holds a core.Embedder and a live
// core.Plan: most failures are absorbed by Plan.Repair's splice fast
// path (one block re-routed, downtime charged for one block), and only
// skeleton-invalidating failures pay for a full re-embedding. It backs
// the examples and the failure-injection tests.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/star"
)

// Config sizes a simulated machine. Costs are in abstract ticks.
type Config struct {
	// N is the star-graph dimension (>= 3).
	N int
	// ID names this machine within a fleet. When set, the machine's
	// telemetry is rebased onto Obs.Child("machine", ID): every metric
	// the machine or its embedder registers carries machine="<ID>", and
	// every NDJSON event record is stamped with a machine field — so N
	// machines can share one parent registry without aliasing each
	// other's counters. Empty means the registry is used as-is (the
	// single-machine behavior).
	ID string
	// HopCost is the latency of moving the token across one physical
	// link; 0 means 1.
	HopCost int64
	// ReembedCostPerBlock models the scheduler recomputing the
	// embedding: ticks per R4 block actually re-routed — one for a
	// repair splice, all n!/24 for a full re-embedding; 0 means 1.
	ReembedCostPerBlock int64
	// Embed configures the underlying embedder. BestEffort additionally
	// lets the machine outlive its formal fault budget.
	Embed core.Config
	// Obs receives campaign accounting (sim.embeds, sim.splices,
	// sim.failures, sim.token_lost counters, the sim.ring_length gauge,
	// sim.phase.reembed spans around cold embeddings and sim.phase.repair
	// spans around online repairs). When Embed.Obs is unset it inherits
	// this registry. A flight recorder installed on the registry
	// (obs.NewFlightRecorder) additionally receives structured
	// sim.fault / sim.repair events for every injected failure, and
	// per-hop sim.token_move events at debug level. Instrumentation
	// never feeds back into the simulation, so determinism in
	// (config, seed) is preserved.
	Obs *obs.Registry
}

// Stats accumulates over a machine's lifetime.
type Stats struct {
	Hops     int64 // physical link traversals
	Laps     int64 // completed ring circulations
	Reembeds int   // full ring reconstructions triggered by failures
	// Splices counts failures absorbed by the repair fast path: one
	// block re-routed and spliced, the rest of the ring untouched.
	Splices   int
	Downtime  int64 // ticks spent repairing or re-embedding
	Uptime    int64 // ticks spent moving the token
	TokenLost int   // failures that hit the current token holder
	// RingLengths records the ring length after the initial embedding
	// and after every ring-changing repair (splice or rebuild).
	RingLengths []int
}

// Machine is one simulated multiprocessor.
type Machine struct {
	cfg   Config
	g     star.Graph
	eng   *core.Embedder
	plan  *core.Plan
	token int // ring position of the token holder
	clock int64
	stats Stats
}

// ErrHalted reports that no ring survives the current fault set.
var ErrHalted = errors.New("sim: machine halted, no healthy ring remains")

// New boots a machine and embeds its initial ring.
func New(cfg Config) (*Machine, error) {
	if cfg.HopCost <= 0 {
		cfg.HopCost = 1
	}
	if cfg.ReembedCostPerBlock <= 0 {
		cfg.ReembedCostPerBlock = 1
	}
	if cfg.ID != "" {
		// Rebase all telemetry — counters, gauges, spans, the event log,
		// and (below) the embedder's metrics — onto the machine's child
		// registry before anything captures cfg.Obs.
		cfg.Obs = cfg.Obs.Child("machine", cfg.ID)
	}
	if cfg.Embed.Obs == nil {
		cfg.Embed.Obs = cfg.Obs
	}
	eng, err := core.NewEmbedder(cfg.N, cfg.Embed)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{cfg: cfg, g: star.New(cfg.N), eng: eng}

	// Boot is one traced operation: the reembed phase, the embedder's
	// phases underneath it, and the boot-time events all share a trace.
	op := cfg.Obs.StartOp("sim.op.boot")
	span := op.Span("sim.phase.reembed")
	plan, err := eng.EmbedOp(op, nil)
	span.End()
	op.Done()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHalted, err)
	}
	m.plan = plan
	cfg.Obs.Counter("sim.embeds").Inc()
	m.chargeRepair(plan.Result().Blocks)
	return m, nil
}

// chargeRepair charges downtime for re-routing the given number of
// blocks (at least one) and records the resulting ring length.
func (m *Machine) chargeRepair(blocks int) {
	if blocks < 1 {
		blocks = 1
	}
	cost := m.cfg.ReembedCostPerBlock * int64(blocks)
	m.clock += cost
	m.stats.Downtime += cost
	length := m.plan.RingLen()
	m.cfg.Obs.Gauge("sim.ring_length").Set(int64(length))
	m.stats.RingLengths = append(m.stats.RingLengths, length)
}

// Clock returns the current simulated time in ticks.
func (m *Machine) Clock() int64 { return m.clock }

// Registry returns the registry the machine records into: the child
// labeled machine="<ID>" when Config.ID was set, else Config.Obs
// verbatim (possibly nil). Fleet drivers snapshot it per machine.
func (m *Machine) Registry() *obs.Registry { return m.cfg.Obs }

// Stats returns a copy of the accumulated statistics.
func (m *Machine) Stats() Stats { return m.stats }

// RingLength returns the current ring length.
func (m *Machine) RingLength() int { return m.plan.RingLen() }

// Ring returns a copy of the current embedded ring; mutating it cannot
// affect the machine. Under a streaming embed config this materializes
// the whole cycle — prefer RingAt for spot reads.
func (m *Machine) Ring() []perm.Code { return m.plan.Ring() }

// RingAt returns the processor at the given ring position without
// materializing the cycle (streaming plans serve it from the one-block
// segment cache).
func (m *Machine) RingAt(i int) perm.Code { return m.plan.RingAt(i) }

// Plan exposes the machine's live embedding plan (read-only use; drive
// faults through FailVertex so the accounting stays consistent).
func (m *Machine) Plan() *core.Plan { return m.plan }

// Faults returns the number of failed processors so far.
func (m *Machine) Faults() int { return m.plan.Result().VertexFaults }

// TokenHolder returns the processor currently holding the token.
func (m *Machine) TokenHolder() perm.Code { return m.plan.RingAt(m.token) }

// Step moves the token to the next processor on the ring, validating
// the hop against the physical topology and the live fault set.
func (m *Machine) Step() error {
	from := m.plan.RingAt(m.token)
	next := (m.token + 1) % m.plan.RingLen()
	to := m.plan.RingAt(next)
	if !m.g.Adjacent(from, to) {
		return fmt.Errorf("sim: internal: ring hop %s -> %s is not a physical link",
			from.StringN(m.cfg.N), to.StringN(m.cfg.N))
	}
	if m.plan.Faulty(from) || m.plan.Faulty(to) {
		return fmt.Errorf("sim: internal: token touched a failed processor")
	}
	m.token = next
	m.clock += m.cfg.HopCost
	m.stats.Uptime += m.cfg.HopCost
	m.stats.Hops++
	if m.token == 0 {
		m.stats.Laps++
	}
	// Per-hop events are debug-level and guarded, so a campaign that
	// logs at info pays only this branch per step.
	if m.cfg.Obs.Enabled(obs.LevelDebug) {
		m.cfg.Obs.Log(obs.LevelDebug, "sim.token_move",
			obs.F("from", from.StringN(m.cfg.N)),
			obs.F("to", to.StringN(m.cfg.N)),
			obs.F("pos", m.token),
			obs.F("clock", m.clock))
	}
	return nil
}

// Circulate completes the given number of full ring laps.
func (m *Machine) Circulate(laps int) error {
	for l := 0; l < laps; l++ {
		for i := 0; i < m.plan.RingLen(); i++ {
			if err := m.Step(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Visit runs one lap, calling f at every processor the token reaches
// (starting with the current holder). It is the building block for
// reductions and broadcasts over the virtual ring.
func (m *Machine) Visit(f func(v perm.Code)) error {
	for i := 0; i < m.plan.RingLen(); i++ {
		f(m.plan.RingAt(m.token))
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// FailVertex marks a processor failed at the current instant and repairs
// the ring through the plan. An off-ring (spare) failure costs nothing;
// a failure absorbed by the splice fast path charges downtime for the
// one re-routed block and keeps the token in place (shifted past the
// shed vertices); a skeleton-invalidating failure pays for a full
// re-embedding and restarts the token at ring position 0. Failing the
// token holder additionally counts a lost token (the protocol above it
// would have to recover by regeneration, which the simulator models as
// restarting the lap — from the repaired segment after a splice, from
// position 0 after a rebuild).
func (m *Machine) FailVertex(v perm.Code) error {
	if m.plan.Faulty(v) {
		return nil
	}
	if !v.Valid(m.cfg.N) {
		return fmt.Errorf("sim: %#v is not a processor of S_%d", v, m.cfg.N)
	}
	lost := v == m.TokenHolder()
	if lost {
		m.stats.TokenLost++
		m.cfg.Obs.Counter("sim.token_lost").Inc()
	}
	m.cfg.Obs.Counter("sim.failures").Inc()

	// One trace covers the whole failure handling: the fault event, the
	// repair phase with the engine's spans under it, and the outcome.
	op := m.cfg.Obs.StartOp("sim.op.fail")
	defer op.Done()
	if op.Enabled(obs.LevelInfo) {
		op.Log(obs.LevelInfo, "sim.fault",
			obs.F("vertex", v.StringN(m.cfg.N)),
			obs.F("token_lost", lost),
			obs.F("clock", m.clock))
	}

	span := op.Span("sim.phase.repair")
	rep, err := m.plan.RepairOp(op, v)
	span.End()
	if err != nil {
		if op.Enabled(obs.LevelError) {
			op.Log(obs.LevelError, "sim.halted",
				obs.F("vertex", v.StringN(m.cfg.N)), obs.F("error", err.Error()))
		}
		return fmt.Errorf("%w: %v", ErrHalted, err)
	}
	if op.Enabled(obs.LevelInfo) {
		op.Log(obs.LevelInfo, "sim.repair",
			obs.F("vertex", v.StringN(m.cfg.N)),
			obs.F("outcome", rep.Outcome.String()),
			obs.F("ring", rep.NewLen),
			obs.F("clock", m.clock))
	}

	switch rep.Outcome {
	case core.RepairAvoided:
		// A spare processor died; the ring never used it, so nothing to
		// re-route and nothing to charge.
		return nil
	case core.RepairSplice:
		m.stats.Splices++
		m.cfg.Obs.Counter("sim.splices").Inc()
		m.chargeRepair(rep.BlocksRerouted)
		// Ring positions before the spliced segment are untouched;
		// inside it the token restarts at the segment head; after it,
		// positions shifted down by the two shed vertices.
		delta := rep.OldLen - rep.NewLen
		switch {
		case m.token >= rep.SegmentStart+rep.SegmentOldLen:
			m.token -= delta
		case m.token >= rep.SegmentStart:
			m.token = rep.SegmentStart
		}
		return nil
	case core.RepairRebuild:
		m.stats.Reembeds++
		m.cfg.Obs.Counter("sim.embeds").Inc()
		m.chargeRepair(rep.BlocksRerouted)
		m.token = 0
		return nil
	}
	return fmt.Errorf("sim: internal: unexpected repair outcome %v", rep.Outcome)
}

// GuaranteedLength returns the paper's bound for the current fault
// count, when still within budget; otherwise 0.
func (m *Machine) GuaranteedLength() int {
	res := m.plan.Result()
	if !res.Guaranteed {
		return 0
	}
	return res.Guarantee
}
