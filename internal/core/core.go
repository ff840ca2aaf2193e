// Package core implements the paper's contribution (Hsieh, Chen, Ho;
// ICPP 1998): embedding a healthy ring of length n! - 2|Fv| onto an
// n-dimensional star graph with |Fv| <= n-3 vertex faults, which is
// optimal in the worst case because the star graph is bipartite with
// equal partite sets. The concluding-remark extensions are included:
// with mixed faults (|Fv| + |Fe| <= n-3) the same length is achieved,
// and with edge faults only the ring is Hamiltonian (length n!).
//
// The pipeline follows the paper's proof structure:
//
//  1. Lemma 2 — choose separating positions a1..a_{n-4} so every
//     4-dimensional block holds at most one fault (internal/faults).
//  2. Lemma 3 — build a super-ring R4 of blocks with properties (P1),
//     (P2), (P3) by refining R_{n-1} -> ... -> R4 (internal/superring).
//  3. Lemma 7 / Theorem 1 — route a healthy path through every block
//     (exact search in the canonical S4, internal/pathsearch), choosing
//     the junction edges between consecutive blocks so that every
//     healthy block contributes all 24 vertices and every faulty block
//     contributes 22.
//
// EmbedPath runs the same pipeline on an open ring of blocks anchored
// at two endpoints, for a longest s-t path. Every embedding, ring or
// path, is re-verified by internal/check before it is returned.
package core

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/substar"
	"repro/internal/superring"
)

// Config tunes an embedding run. The zero value asks for the strict
// paper algorithm.
type Config struct {
	// Workers is ignored: block paths are replayed on demand from the
	// routed skeleton, so there is no parallel materialization left to
	// size.
	//
	// Deprecated: the ring is only ever held in skeleton form.
	Workers int
	// BestEffort permits fault sets beyond the paper's budget
	// (|Fv|+|Fe| > n-3): separation and per-block routing then fall back
	// to the longest achievable paths and the result carries no length
	// guarantee (Result.Guaranteed is false).
	BestEffort bool
	// Opportunistic enables the beyond-worst-case extension: when
	// faults split across the bipartition, some faulty blocks are
	// routed with 23 vertices instead of 22 (losing only the fault
	// itself), recovering up to 2*min(f0, f1) of the slack between the
	// paper's n!-2|Fv| and the bipartite ceiling n!-2*max(f0, f1). The
	// guarantee is unchanged; only the achieved length grows. See
	// planUpgrades for the parity-alternation limit.
	Opportunistic bool
	// VerifyRepairs re-runs the full check.RingStream after every
	// successful Plan.Repair splice. By default only the spliced segment
	// is verified (the point of the fast path); tests and paranoid
	// callers set this to keep the one-shot self-verification
	// discipline.
	VerifyRepairs bool
	// Streaming is ignored: every plan keeps its ring in skeleton form
	// at O(#blocks) memory and emits it through Plan.Cursor.
	//
	// Deprecated: skeleton form is the only ring representation.
	Streaming bool
	// Obs receives the run's telemetry: phase spans (core.phase.*),
	// junction backtracks and routed blocks — see the README's
	// Observability section for the glossary. nil disables
	// instrumentation at a cost of a few nanoseconds per hook.
	Obs *obs.Registry
}

// Result describes a verified ring embedding, or for a plan from
// EmbedPath a verified s-t path. The cycle or path itself lives in the
// owning Plan's skeleton and is emitted through Plan.Cursor (or copied
// out by Plan.Ring); Result carries its length and metadata.
type Result struct {
	N      int
	Length int // the ring (or path) length

	VertexFaults int
	EdgeFaults   int

	// Guarantee is the paper's bound n! - 2|Fv| (n! for edge faults
	// only), one fewer for a path whose ends share a partite set; the
	// length always reaches it when Guaranteed is true.
	Guarantee  int
	Guaranteed bool
	// UpperBound is the bipartite ceiling n! - 2*max(f0, f1) on any
	// healthy cycle for this fault set. It bounds cycles only, so it is
	// zero for a path.
	UpperBound int

	// Blocks and FaultyBlocks describe the R4 decomposition (zero for
	// the small-n direct cases).
	Blocks       int
	FaultyBlocks int
	// Upgrades counts faulty blocks routed with 23 vertices by the
	// opportunistic extension (zero under the plain paper algorithm).
	Upgrades int
	// Positions are the Lemma 2 separating positions a1..a_{n-4}.
	Positions []int
}

// Len returns the ring (or path) length.
func (r *Result) Len() int { return r.Length }

// ErrBudget reports a fault set exceeding the paper's tolerance.
var ErrBudget = errors.New("core: fault set exceeds the paper's budget |Fv|+|Fe| <= n-3")

// ErrNoRing reports that no healthy ring exists at all (only possible
// outside the paper's preconditions, e.g. S_3 with a fault).
var ErrNoRing = errors.New("core: no healthy ring exists")

// Embed constructs a healthy ring in S_n avoiding the given faults.
// With fs nil or empty the ring is a Hamiltonian cycle. The paper's
// precondition is n >= 3 and |Fv| + |Fe| <= n - 3; beyond it, Embed
// fails unless cfg.BestEffort is set.
//
// Embed is the one-shot convenience wrapper over the session-oriented
// engine: it builds a throwaway Embedder and returns the Plan of one
// run. Callers embedding repeatedly in the same dimension should hold
// an Embedder instead.
func Embed(n int, fs *faults.Set, cfg Config) (*Plan, error) {
	e, err := NewEmbedder(n, cfg)
	if err != nil {
		return nil, err
	}
	return e.Embed(fs)
}

// embedLarge handles n >= 5: Lemma 2 separation, Lemma 3 construction
// of the R4 with (P1)(P2)(P3), and Lemma 7 block routing. Beyond
// filling res it returns the skeleton — every block's routed entry and
// step word plus the faults it avoids — which is the ring: Plan
// replays it block by block and Plan.Repair re-routes single blocks of
// it. The R4 itself is dropped once routed.
func embedLarge(res *Result, fs *faults.Set, cfg Config, in *instr) (*skeleton, error) {
	n := res.N
	sspan := in.span("core.phase.separation")
	positions, separated := fs.SeparatingPositions()
	sspan.End()
	if !separated && !cfg.BestEffort {
		return nil, fmt.Errorf("core: internal: Lemma 2 separation failed for %v", fs)
	}
	res.Positions = positions

	bspan := in.span("core.phase.build_r4")
	r4, err := buildR4(n, positions, fs, cfg)
	bspan.End()
	if err != nil {
		return nil, err
	}
	res.Blocks = r4.Len()

	// Block set-up: the skeleton's arrays, the R4's refinement record as
	// its block lookup and the side table of faulty blocks.
	bspan = in.span("core.phase.blocks")
	sk, err := newSkeleton(r4, fs)
	bspan.End()
	if err != nil {
		return nil, err
	}
	res.FaultyBlocks = sk.vertexFaultBlocks()

	if cfg.Opportunistic && !cfg.BestEffort && fs.NumVertices() >= 2 && fs.NumEdges() == 0 {
		upgraded, exitParity := planUpgrades(sk, n)
		if exitParity != nil {
			if err := sk.routeRing(r4, fs, opportunisticTargets(upgraded), exitParity, in); err == nil {
				for _, u := range upgraded {
					if u {
						res.Upgrades++
					}
				}
				return sk, nil
			}
			// Fall through to the plain paper routing: the guarantee
			// never depends on the upgrade pass succeeding.
		}
	}

	targetsFor := paperTargets(cfg.BestEffort)
	if err := sk.routeRing(r4, fs, func(_, vf int) []int { return targetsFor(vf) }, nil, in); err != nil {
		return nil, err
	}
	return sk, nil
}

// paperTargets is the paper's per-block length policy: a healthy block
// contributes all 24 vertices, a block with one vertex fault contributes
// 22 (Lemma 4); intra-block edge faults cost nothing (the exact search
// routes around them). In best-effort mode blocks holding several faults
// fall back through successively shorter paths. Blocks with the same
// fault count share one read-only list, so the policy costs one small
// allocation per distinct count rather than one per block.
func paperTargets(bestEffort bool) func(numVertexFaults int) []int {
	var memo [blockOrder/2 + 1][]int
	return func(vf int) []int {
		if vf < len(memo) && memo[vf] != nil {
			return memo[vf]
		}
		base := blockOrder - 2*vf
		ts := []int{base}
		if bestEffort {
			ts = nil
			for t := base; t >= 2; t -= 2 {
				ts = append(ts, t)
			}
		}
		if vf < len(memo) {
			memo[vf] = ts
		}
		return ts
	}
}

// weightOf returns the fault-count function used for (P3), fault
// spreading and junction health during construction: the number of
// faulty vertices plus fully-interior faulty edges inside a pattern.
func weightOf(fs *faults.Set) func(substar.Pattern) int {
	return func(p substar.Pattern) int {
		w := fs.CountIn(p)
		for _, e := range fs.Edges() {
			if p.Contains(e.U) && p.Contains(e.V) {
				w++
			}
		}
		return w
	}
}

// buildR4 realizes Lemma 3 (and the n = 5 base case of Theorem 1's
// proof): an R4 whose supervertices satisfy (P1), (P2) and (P3).
func buildR4(n int, positions []int, fs *faults.Set, cfg Config) (*superring.Ring, error) {
	spec := BuildSpec{
		Positions:      append([]int(nil), positions...),
		SpreadFaults:   true,
		HealthyBorders: true,
		VerifyP1:       !cfg.BestEffort,
		VerifyP2:       !cfg.BestEffort,
		VerifyP3:       !cfg.BestEffort,
		Obs:            cfg.Obs,
	}
	r4, err := BuildR4(n, fs, spec)
	if err != nil && cfg.BestEffort {
		// Beyond the budget the Lemma 3 discipline can become
		// unsatisfiable (e.g. more faulty blocks than a cycle can keep
		// apart); drop it and let the router degrade per block instead.
		relaxed := spec
		relaxed.SpreadFaults = false
		relaxed.HealthyBorders = false
		r4, err = BuildR4(n, fs, relaxed)
	}
	return r4, err
}

// BuildSpec parameterizes R4 construction. The paper's algorithm uses
// SpreadFaults and HealthyBorders with all three properties verified;
// the baselines in internal/baseline reuse the machinery with weaker
// settings (Tseng: no (P2)/(P3) discipline) or with exclusion (Latifi-
// Bagherzadeh: the clustered substar is dropped from the ring entirely).
type BuildSpec struct {
	// Positions is the partition sequence a1..a_{n-4}; all must be
	// distinct positions in 2..n.
	Positions []int
	// Exclude drops matching supervertices from the ring as soon as a
	// partition creates them.
	Exclude func(substar.Pattern) bool
	// SpreadFaults and HealthyBorders enable the Lemma 3 discipline at
	// the final refinement: fault-bearing blocks pairwise non-adjacent
	// and every junction block fault-free.
	SpreadFaults   bool
	HealthyBorders bool
	// VerifyP1/P2/P3 assert the corresponding property on the result.
	VerifyP1, VerifyP2, VerifyP3 bool
	// Obs receives the refinement telemetry (superring.phase.*,
	// superring.junction.backtracks); nil disables it.
	Obs *obs.Registry
}

// BuildR4 partitions S_n along spec.Positions and threads the
// super-ring refinements of Lemma 3, returning the ring of order-4
// supervertices. It is exported for internal/baseline, which shares the
// substrate; library users should call Embed.
func BuildR4(n int, fs *faults.Set, spec BuildSpec) (*superring.Ring, error) {
	if len(spec.Positions) != n-4 {
		return nil, fmt.Errorf("core: need %d partition positions for S_%d, got %d", n-4, n, len(spec.Positions))
	}
	weight := weightOf(fs)
	finalOpts := superring.Options{
		FaultCount:       weight,
		Exclude:          spec.Exclude,
		SpreadFaults:     spec.SpreadFaults,
		HealthyJunctions: spec.HealthyBorders,
		Obs:              spec.Obs,
	}
	midOpts := superring.Options{FaultCount: weight, Exclude: spec.Exclude, Obs: spec.Obs}

	var r *superring.Ring
	var err error
	if n == 5 {
		// A single partition splits S_5 into five blocks forming a K_5;
		// arranging the (at most two) faulty blocks apart yields the R4
		// directly, with (P2) trivial because all superedges share the
		// same dif position.
		r, err = superring.Initial(n, spec.Positions[0], finalOpts)
		if err != nil {
			return nil, fmt.Errorf("core: R4 construction (n=5): %w", err)
		}
	} else {
		r, err = superring.Initial(n, spec.Positions[0], midOpts)
		if err != nil {
			return nil, fmt.Errorf("core: initial super-ring: %w", err)
		}
		for j := 1; j < len(spec.Positions); j++ {
			opts := midOpts
			if j == len(spec.Positions)-1 {
				opts = finalOpts
			}
			r, err = r.Refine(spec.Positions[j], opts)
			if err != nil {
				return nil, fmt.Errorf("core: refinement %d at position %d: %w", j, spec.Positions[j], err)
			}
		}
	}

	if r.Order() != 4 {
		return nil, fmt.Errorf("core: internal: super-ring has order %d, want 4", r.Order())
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal: %w", err)
	}
	if spec.VerifyP1 && !r.P1(func(p substar.Pattern) int { return fs.CountIn(p) }) {
		return nil, errors.New("core: internal: R4 violates (P1)")
	}
	if spec.VerifyP2 {
		if v := r.FirstP2Violation(); v != -1 {
			return nil, fmt.Errorf("core: internal: R4 violates (P2) at supervertex %d", v)
		}
	}
	if spec.VerifyP3 && !r.P3(weight) {
		return nil, errors.New("core: internal: R4 violates (P3)")
	}
	return r, nil
}
