package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/substar"
	"repro/internal/superring"
)

// blockOrder is the number of vertices per S4 block.
const blockOrder = pathsearch.BlockOrder

// blockPlan collects everything needed to route one block of the R4.
type blockPlan struct {
	block   *pathsearch.Block
	avoidV  []perm.Code    // faulty vertices inside the block
	avoidE  [][2]perm.Code // faulty edges interior to the block
	targets []int          // acceptable path lengths, best first

	// Chosen by the junction search:
	entry, exit perm.Code
	length      int // the target that succeeded

	// fixed, when set, is the whole cycle of an n <= 4 direct embedding,
	// which has no block structure to replay: the plan's single stored
	// segment. It is nil on every routed block; a pointer rather than a
	// slice keeps blockPlan in its 112-byte allocation class, which
	// matters at one blockPlan per 24 ring vertices.
	fixed *[]perm.Code
}

// appendPath appends the block's current path, in ring order, to dst.
// Once the junctions are fixed the path is a deterministic function of
// the block's (entry, exit, avoid, length) tuple — the memoized
// canonical-S4 search replays it bit-identically — so this one replay
// is how every view of the ring reads a block: the cursor, the
// random-access accessors, and RouteR4's flat slice.
func (pb *blockPlan) appendPath(dst []perm.Code) ([]perm.Code, bool) {
	if pb.fixed != nil {
		return append(dst, *pb.fixed...), true
	}
	return pb.block.PathAppend(dst, pathsearch.PathSpec{
		From: pb.entry, To: pb.exit,
		AvoidV: pb.avoidV, AvoidE: pb.avoidE,
		Target: pb.length,
	})
}

// route reports whether the block admits a path of one of its target
// lengths between entry and exit, and records the first that works as
// the block's entry, exit and length. It asks Block.Admits, which
// answers from the S4 memo without mapping the path back to S_n, so a
// feasibility test allocates nothing once the memo holds its search.
func (pb *blockPlan) route(entry, exit perm.Code) bool {
	for _, t := range pb.targets {
		if pb.block.Admits(pathsearch.PathSpec{
			From: entry, To: exit,
			AvoidV: pb.avoidV, AvoidE: pb.avoidE,
			Target: t,
		}) {
			pb.entry, pb.exit, pb.length = entry, exit, t
			return true
		}
	}
	return false
}

// junction is one candidate crossing edge between consecutive blocks:
// exit u in block k, entry w in block k+1.
type junction struct {
	u, w perm.Code
}

// newBlockPlans builds the routing state of a sequence of order-4
// blocks: each block's isomorphism and the faults inside it. Targets
// are left to the caller.
func newBlockPlans(pats []substar.Pattern, fs *faults.Set) ([]*blockPlan, error) {
	plans := make([]*blockPlan, len(pats))
	for k, pat := range pats {
		b, err := pathsearch.NewBlock(pat)
		if err != nil {
			return nil, fmt.Errorf("core: internal: %w", err)
		}
		plan := &blockPlan{block: b}
		plan.avoidV = fs.FaultyIn(pat, nil)
		for _, e := range fs.IntraEdgesIn(pat, nil) {
			plan.avoidE = append(plan.avoidE, [2]perm.Code{e.U, e.V})
		}
		plans[k] = plan
	}
	return plans, nil
}

// junctionCandidates lists, for each of the first gaps superedges
// (block k to block k+1, wrapping past the last block), its healthy
// crossing edges that keep accepts, in CrossEdges order. Every list is
// a window of one shared backing array and every superedge's cross
// edges are enumerated into the same two buffers, so the set-up costs
// a handful of allocations however many blocks there are. The second
// result is the first superedge left without a candidate, or -1.
func junctionCandidates(pats []substar.Pattern, gaps int, fs *faults.Set, keep func(k int, u, w perm.Code) bool) ([][]junction, int) {
	// An order-4 block has (4-1)! = 6 crossing edges to each neighbor.
	const perGap = 6
	cands := make([][]junction, gaps)
	flat := make([]junction, 0, perGap*gaps)
	us, ws := make([]perm.Code, 0, perGap), make([]perm.Code, 0, perGap)
	for k := 0; k < gaps; k++ {
		us, ws = pats[k].CrossEdges(pats[(k+1)%len(pats)], us[:0], ws[:0])
		start := len(flat)
		for i, u := range us {
			w := ws[i]
			if fs.HasVertex(u) || fs.HasVertex(w) || fs.HasEdge(u, w) || !keep(k, u, w) {
				continue
			}
			flat = append(flat, junction{u: u, w: w})
		}
		if len(flat) == start {
			return nil, k
		}
		cands[k] = flat[start:len(flat):len(flat)]
	}
	return cands, -1
}

// routed is the skeleton-level outcome of one routing run: the
// per-block state (entry/exit junctions, achieved lengths) and the
// block-to-ring-segment offsets. It is the ring — block k's segment is
// blockPlan.appendPath of plans[k] — without holding a single vertex of
// it, so a Plan keeps it at O(#blocks) memory, Repair re-routes one
// block and shifts the offsets, and RingCursor streams the cycle.
type routed struct {
	plans   []*blockPlan
	offsets []int // block k occupies ring[offsets[k]:offsets[k+1]]
}

// newRouted computes the segment offsets of routed block plans.
func newRouted(plans []*blockPlan) *routed {
	offsets := make([]int, len(plans)+1)
	for k, p := range plans {
		offsets[k+1] = offsets[k] + p.length
	}
	return &routed{plans: plans, offsets: offsets}
}

// ringLen returns the total ring length implied by the block lengths.
func (rt *routed) ringLen() int { return rt.offsets[len(rt.offsets)-1] }

// drain replays every block into one flat slice: the ring (or, for a
// chain, the path) in order.
func (rt *routed) drain() ([]perm.Code, error) {
	out := make([]perm.Code, 0, rt.ringLen())
	for k, p := range rt.plans {
		var ok bool
		if out, ok = p.appendPath(out); !ok {
			return nil, fmt.Errorf("core: internal: block %d path vanished on replay", k)
		}
	}
	return out, nil
}

// RouteR4 is the executable Lemma 7: given an R4 with (P1)(P2)(P3), it
// selects a healthy junction edge across every superedge and threads a
// healthy path of the per-block target length through every block,
// producing the final ring. Junction selection is a sequential scan with
// backtracking; (P2) guarantees (via Lemmas 1, 5 and 6) that a valid
// combination exists, and the exact block search makes each feasibility
// test cheap and memoized.
//
// targetsFor maps a block's vertex-fault count to the acceptable path
// lengths, best first. RouteR4 is exported for internal/baseline, which
// routes its own R4 variants through the same engine and wants the flat
// ring; library users should call Embed.
func RouteR4(r4 *superring.Ring, fs *faults.Set, targetsFor func(int) []int, cfg Config) ([]perm.Code, error) {
	in := newInstr(cfg.Obs, fs.N())
	rt, err := routeR4x(r4, fs, func(_, vf int) []int { return targetsFor(vf) }, nil, in)
	if err != nil {
		return nil, err
	}
	return rt.drain()
}

// routeR4x is RouteR4 with two extra degrees of freedom used by the
// opportunistic mode: per-block-index target policies and, when
// exitParity is non-nil, a forced partite side for every block's exit
// vertex (which pins the global parity chain that odd-length block
// paths require).
func routeR4x(r4 *superring.Ring, fs *faults.Set, targetsFor func(blockIdx, vf int) []int, exitParity []int, in *instr) (*routed, error) {
	m := r4.Len()
	n := r4.N()
	// Block set-up — isomorphisms, fault lists, targets and the
	// candidate junctions per superedge: healthy endpoints, healthy
	// crossing edges, and (in opportunistic mode) the forced exit side.
	bspan := in.span("core.phase.blocks")
	plans, err := newBlockPlans(r4.Vertices(), fs)
	if err != nil {
		bspan.End()
		return nil, err
	}
	for k, plan := range plans {
		plan.targets = targetsFor(k, len(plan.avoidV))
	}
	cands, empty := junctionCandidates(r4.Vertices(), m, fs, func(k int, u, _ perm.Code) bool {
		return exitParity == nil || u.Parity(n) == exitParity[k]
	})
	bspan.End()
	if empty >= 0 {
		return nil, fmt.Errorf("core: superedge %d has no healthy crossing edge", empty)
	}

	jspan := in.span("core.phase.junction")
	err = chooseJunctions(plans, cands, in)
	jspan.End()
	if err != nil {
		return nil, err
	}
	in.blocksRouted(m)
	return newRouted(plans), nil
}

// chooseJunctions assigns one junction per superedge such that every
// block admits a path of one of its target lengths between its entry
// (from the previous junction) and exit (from its own junction).
// Junction k joins block k to block k+1; block k is validated once
// junctions k-1 and k are set, and block 0 closes the cycle when the
// final junction is chosen.
func chooseJunctions(plans []*blockPlan, cands [][]junction, in *instr) error {
	m := len(plans)
	idx := make([]int, m)
	chosen := make([]junction, m)

	// The step bound guards against pathological backtracking; it must
	// scale with the block count or the bound itself becomes the limit —
	// n = 11 already has 1.66M blocks, more than the old fixed 2^21.
	maxSteps := 1 << 21
	if s := 32 * m; s > maxSteps {
		maxSteps = s
	}
	steps := 0
	k := 0
	for k < m {
		if steps++; steps > maxSteps {
			return fmt.Errorf("core: junction search exceeded %d steps (blocks=%d)", maxSteps, m)
		}
		if idx[k] >= len(cands[k]) {
			idx[k] = 0
			k--
			if k < 0 {
				return fmt.Errorf("core: no junction assignment routes the ring")
			}
			idx[k]++
			in.junctionBacktrack()
			continue
		}
		chosen[k] = cands[k][idx[k]]
		ok := true
		if k >= 1 && !plans[k].route(chosen[k-1].w, chosen[k].u) {
			ok = false
		}
		if ok && k == m-1 && !plans[0].route(chosen[m-1].w, chosen[0].u) {
			ok = false
		}
		if !ok {
			idx[k]++
			in.junctionBacktrack()
			continue
		}
		k++
	}

	// Feasibility calls above recorded entry/exit for blocks 1..m-1 and
	// finally block 0; but intermediate backtracking may have left stale
	// state, so re-record the final assignment.
	for k := 0; k < m; k++ {
		prev := (k - 1 + m) % m
		if !plans[k].route(chosen[prev].w, chosen[k].u) {
			return fmt.Errorf("core: internal: block %d lost feasibility on replay", k)
		}
	}
	return nil
}
