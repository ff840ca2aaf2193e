package core

import (
	"fmt"
	"math/bits"

	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/substar"
	"repro/internal/superring"
)

// crossEdges is the number of crossing edges between two adjacent
// order-4 blocks, (4-1)!.
const crossEdges = 6

// lexOrders3 lists the orders of three items in lexicographic order:
// the order in which Pattern.CrossEdges assigns the three remaining
// free symbols.
var lexOrders3 = [crossEdges][3]uint8{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// crossing enumerates the crossing edges from block p to the adjacent
// block q in Pattern.CrossEdges order without re-reading the patterns:
// u holds the symbol y that q fixes at their dif position j at position
// 1, and p's three other free symbols at p's other free positions in
// each of their six orders; w is u.SwapFirst(j).
type crossing struct {
	u0   perm.Code    // p's fixed symbols, and y at position 1
	rest [3]perm.Code // p's free symbols other than y, minus 1, increasing
	j    int
}

// crossingOf reads superedge (p, q) once, from the blocks' words: the
// dif position and the symbol y there come from Dif, u0 is p's
// fixed-symbol word with y at position 1, and the rest are p's free
// symbols but y. ok is false when the blocks are not adjacent.
func crossingOf(p, q substar.Pattern) (c crossing, ok bool) {
	c.j = p.Dif(q)
	if c.j == 0 {
		return c, false
	}
	y := q.SymbolAt(c.j)
	c.u0 = p.Fixed() | perm.Code(y-1)
	rest := p.FreeSymbolMask() &^ (1 << (y - 1))
	for t := range c.rest {
		c.rest[t] = perm.Code(bits.TrailingZeros32(rest))
		rest &= rest - 1
	}
	return c, true
}

// edge returns crossing edge i (0 <= i < 6) given the blocks' shared
// free positions.
func (c *crossing) edge(free [4]uint8, i int) (u, w perm.Code) {
	o := lexOrders3[i]
	u = c.u0 | c.rest[o[0]]<<(4*uint(free[1]-1)) | c.rest[o[1]]<<(4*uint(free[2]-1)) | c.rest[o[2]]<<(4*uint(free[3]-1))
	return u, u.SwapFirst(c.j)
}

// router is the routing-time state of one junction search over a block
// sequence — the R4 ring, or an anchored chain — whose outcome it
// writes straight into a skeleton's entry and step arrays. Beyond the
// skeleton it keeps two bytes per superedge: a mask of the crossing
// edges that passed the health filter and the search's position among
// them. A candidate's endpoints are recomputed from the two block
// patterns whenever the search tries it.
type router struct {
	sk   *skeleton
	pats []substar.Pattern
	// targets maps a block's ring position and vertex-fault count to its
	// acceptable path lengths, best first.
	targets func(k, vf int) []int
	cands   []uint8 // per superedge: bit i set when crossing edge i is a candidate
	tried   []uint8 // per superedge: the crossing edge the search is on
	// last is the exit of the block the last junction enters, routed
	// only when that junction lands: for a ring block 0's, which
	// junction 0 sets, and for a chain the target.
	last perm.Code
}

// newRouter sets up the junction search over the first gaps superedges
// of pats (block k to block k+1, wrapping past the last block): a
// crossing edge is a candidate when both endpoints and the edge are
// healthy and keep (nil keeps all) accepts it. Endpoint health is read
// from the side table, which holds every faulty vertex of its block.
// Between two fault-free blocks, with no edge fault in the set and no
// keep, every crossing edge is a candidate, so none is computed. The
// second result is the first superedge left without a candidate, or
// -1.
func newRouter(sk *skeleton, pats []substar.Pattern, fs *faults.Set, gaps int, keep func(k int, u, w perm.Code) bool) (*router, int) {
	m := len(pats)
	rt := &router{sk: sk, pats: pats, cands: make([]uint8, gaps), tried: make([]uint8, gaps)}
	edgeFaults := fs.NumEdges() > 0
	for k := 0; k < gaps; k++ {
		next := (k + 1) % m
		if !edgeFaults && keep == nil && !sk.holdsFault(k) && !sk.holdsFault(next) {
			if pats[k].Dif(pats[next]) == 0 {
				return nil, k
			}
			rt.cands[k] = 1<<crossEdges - 1
			continue
		}
		c, ok := crossingOf(pats[k], pats[next])
		if !ok {
			return nil, k
		}
		fu, _ := sk.faults(k)
		fw, _ := sk.faults(next)
		var mask uint8
		for i := 0; i < crossEdges; i++ {
			u, w := c.edge(sk.free, i)
			if holds(fu, u) || holds(fw, w) || edgeFaults && fs.HasEdge(u, w) || keep != nil && !keep(k, u, w) {
				continue
			}
			mask |= 1 << uint(i)
		}
		if mask == 0 {
			return nil, k
		}
		rt.cands[k] = mask
	}
	return rt, -1
}

// holds reports whether v is among vs.
func holds(vs []perm.Code, v perm.Code) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}

// route reports whether block k admits a path of one of its target
// lengths from entry to exit, and records the first that works as the
// block's entry and step word. A fault-free block's 24-vertex target
// is one read of the static table (pathsearch.Hamiltonian), keyed by
// the ends' canonical indices. Any other target, and every target of a
// faulty block, asks Block.Route through the isomorphism of the
// entry's block computed on the stack: Lemma 4's 22-vertex target
// around a block's one faulty vertex is a read of the detour table,
// and anything else a search on the call. A target the ends' parities
// rule out is skipped before any query: a path of t vertices takes t−1
// steps across the bipartition, so it joins ends of one parity exactly
// when t is odd. (A healthy S4 refuses the 24 only to ends of one
// parity, so best effort's even targets behind it are never searched.)
// The paper's two targets allocate nothing, and the word a test
// returns is all a replay of the block needs.
func (rt *router) route(k int, entry, exit perm.Code) bool {
	sk := rt.sk
	spec := pathsearch.PathSpec{From: entry, To: exit}
	clean := !sk.holdsFault(k)
	if !clean {
		spec.AvoidV, spec.AvoidE = sk.faults(k)
	}
	ts := rt.targets(k, len(spec.AvoidV))
	if clean && len(ts) > 0 && ts[0] == blockOrder {
		if steps := pathsearch.Hamiltonian(entry, exit, sk.free); steps != 0 {
			sk.entry[k], sk.steps[k] = entry, steps
			return true
		}
		ts = ts[1:]
	}
	if len(ts) == 0 {
		return false
	}
	n := sk.n
	sameSide := entry.Parity(n) == exit.Parity(n)
	b := pathsearch.BlockAt(entry, sk.free)
	for _, t := range ts {
		if (t%2 == 1) != sameSide {
			continue
		}
		spec.Target = t
		if steps, ok := b.Route(spec); ok {
			sk.entry[k], sk.steps[k] = entry, steps
			return true
		}
	}
	return false
}

// search assigns a crossing edge to every superedge such that every
// block admits a path of one of its target lengths between its entry
// (from the previous junction) and its exit (from its own junction).
// Junction k joins block k to block k+1. Block k is validated once
// junctions k-1 and k are set — for a chain, block 0 as soon as
// junction 0 is, its entry being the source — and the block after the
// last junction when that junction lands: block 0 for a ring, which
// closes the cycle, and the target's block for a chain. Each
// validation writes the block's entry and step word, and the search
// only moves forward past a block after validating it with the
// junctions it ends with, so the skeleton holds the final assignment
// when the search completes. A chain's skeleton arrives with the
// source as block 0's entry, and its router with the target as last.
func (rt *router) search(chain bool, in *instr) error {
	sk := rt.sk
	m, gaps := len(rt.pats), len(rt.cands)
	what := "ring"
	if chain {
		what = "chain"
	}
	// The step bound guards against pathological backtracking; it must
	// scale with the block count or the bound itself becomes the limit —
	// n = 11 already has 1.66M blocks, more than a fixed 2^21.
	maxSteps := 1 << 21
	if s := 32 * m; s > maxSteps {
		maxSteps = s
	}
	clear(rt.tried)
	steps := 0
	k := 0
	for k < gaps {
		if steps++; steps > maxSteps {
			return fmt.Errorf("core: %s junction search exceeded %d steps (blocks=%d)", what, maxSteps, m)
		}
		i := bits.TrailingZeros8(rt.cands[k] >> rt.tried[k] << rt.tried[k])
		if i >= crossEdges {
			rt.tried[k] = 0
			k--
			if k < 0 {
				return fmt.Errorf("core: no junction assignment routes the %s", what)
			}
			rt.tried[k]++
			in.junctionBacktrack()
			continue
		}
		rt.tried[k] = uint8(i)
		next := (k + 1) % m
		c, _ := crossingOf(rt.pats[k], rt.pats[next])
		u, w := c.edge(sk.free, i)
		ok := true
		if k >= 1 || chain {
			ok = rt.route(k, sk.entry[k], u)
		} else {
			rt.last = u
		}
		if ok && k == gaps-1 {
			ok = rt.route(next, w, rt.last)
		}
		if !ok {
			rt.tried[k]++
			in.junctionBacktrack()
			continue
		}
		sk.entry[next] = w
		k++
	}
	return nil
}

// RouteR4 is the executable Lemma 7: given an R4 with (P1)(P2)(P3), it
// selects a healthy junction edge across every superedge and threads a
// healthy path of the per-block target length through every block,
// producing the final ring. Junction selection is a sequential scan with
// backtracking; (P2) guarantees (via Lemmas 1, 5 and 6) that a valid
// combination exists, and each feasibility test of the paper's targets
// is a read of a step-word table the exact block search generated.
//
// targetsFor maps a block's vertex-fault count to the acceptable path
// lengths, best first. RouteR4 is exported for internal/baseline, which
// routes its own R4 variants through the same engine and wants the flat
// ring; library users should call Embed.
func RouteR4(r4 *superring.Ring, fs *faults.Set, targetsFor func(int) []int, cfg Config) ([]perm.Code, error) {
	sk, err := routeR4x(r4, fs, func(_, vf int) []int { return targetsFor(vf) }, nil, newInstr(cfg.Obs, fs.N()))
	if err != nil {
		return nil, err
	}
	return sk.drain(), nil
}

// routeR4x builds the skeleton of r4 and routes it; see routeRing.
func routeR4x(r4 *superring.Ring, fs *faults.Set, targetsFor func(k, vf int) []int, exitParity []int, in *instr) (*skeleton, error) {
	sk, err := newSkeleton(r4, fs)
	if err != nil {
		return nil, err
	}
	return sk, sk.routeRing(r4, fs, targetsFor, exitParity, in)
}

// routeRing runs the junction search of RouteR4 over the skeleton of
// r4, with two extra degrees of freedom used by the opportunistic mode:
// per-block-index target policies and, when exitParity is non-nil, a
// forced partite side for every block's exit vertex (which pins the
// global parity chain that odd-length block paths require). On success
// the skeleton holds the routed ring, offset checkpoints included.
func (sk *skeleton) routeRing(r4 *superring.Ring, fs *faults.Set, targetsFor func(k, vf int) []int, exitParity []int, in *instr) error {
	m := r4.Len()
	n := r4.N()
	// The candidate junctions per superedge: healthy endpoints, healthy
	// crossing edges, and (in opportunistic mode) the forced exit side.
	bspan := in.span("core.phase.blocks")
	var keep func(k int, u, w perm.Code) bool
	if exitParity != nil {
		keep = func(k int, u, _ perm.Code) bool { return u.Parity(n) == exitParity[k] }
	}
	rt, empty := newRouter(sk, r4.Vertices(), fs, m, keep)
	bspan.End()
	if empty >= 0 {
		return fmt.Errorf("core: superedge %d has no healthy crossing edge", empty)
	}
	rt.targets = targetsFor

	jspan := in.span("core.phase.junction")
	err := rt.search(false, in)
	jspan.End()
	if err != nil {
		return err
	}
	sk.layout()
	in.blocksRouted(m)
	return nil
}
