// Package superring implements the paper's rings of supervertices
// (Definitions 4 and 5): an R_r is a cyclic sequence of order-r
// substars, pairwise adjacent as patterns. The package provides the
// i-partition refinement R_r -> R_{r-1} that underlies Lemma 3 — each
// supervertex splits into a clique K_r of children, and the refinement
// threads a Hamiltonian path through every clique, interleaved with the
// superedges — together with the entry/exit selection rules (blocked
// children, "first/last two connected" and fault spreading) that give
// the final R4 the paper's properties (P1), (P2) and (P3).
package superring

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/substar"
)

// Ring is a cyclic sequence of pairwise-adjacent order-r substars of
// S_n. Index arithmetic is modulo the length.
type Ring struct {
	n     int
	order int
	verts []substar.Pattern
}

// ErrUnsatisfiable reports that no arrangement satisfying the requested
// constraints exists; within the paper's fault budget this indicates a
// bug rather than a legitimate outcome, so callers treat it as fatal.
var ErrUnsatisfiable = errors.New("superring: constraints unsatisfiable")

// New wraps a validated sequence of supervertices into a Ring.
func New(n int, verts []substar.Pattern) (*Ring, error) {
	if len(verts) < 3 {
		return nil, fmt.Errorf("superring: ring needs >= 3 supervertices, got %d", len(verts))
	}
	order := verts[0].R()
	for i, v := range verts {
		if v.N() != n {
			return nil, fmt.Errorf("superring: vertex %d has dimension %d, want %d", i, v.N(), n)
		}
		if v.R() != order {
			return nil, fmt.Errorf("superring: vertex %d has order %d, want %d", i, v.R(), order)
		}
		next := verts[(i+1)%len(verts)]
		if !v.Adjacent(next) {
			return nil, fmt.Errorf("superring: vertices %d (%v) and %d (%v) not adjacent", i, v, (i+1)%len(verts), next)
		}
	}
	return &Ring{n: n, order: order, verts: verts}, nil
}

// N returns the ambient dimension.
func (r *Ring) N() int { return r.n }

// Order returns the order of each supervertex.
func (r *Ring) Order() int { return r.order }

// Len returns the number of supervertices.
func (r *Ring) Len() int { return len(r.verts) }

// At returns supervertex i modulo the ring length.
func (r *Ring) At(i int) substar.Pattern {
	m := len(r.verts)
	return r.verts[((i%m)+m)%m]
}

// Vertices returns the underlying slice; callers must not modify it.
func (r *Ring) Vertices() []substar.Pattern { return r.verts }

// Options direct a refinement or initial arrangement.
type Options struct {
	// FaultCount reports the number of fault witnesses inside a pattern;
	// nil means fault-oblivious construction.
	FaultCount func(substar.Pattern) int
	// Exclude drops matching children from the refined ring entirely
	// (used by the Latifi-Bagherzadeh clustered baseline). Excluded
	// children must never be entry or exit candidates.
	Exclude func(substar.Pattern) bool
	// HealthyJunctions requires every entry and exit child (the two
	// children straddling each superedge) to be fault-free. Combined
	// with SpreadFaults this yields property (P3).
	HealthyJunctions bool
	// SpreadFaults forbids two fault-bearing children from being
	// consecutive within a clique path.
	SpreadFaults bool
	// Obs receives construction telemetry: a superring.phase.initial /
	// superring.phase.refine span per call and the junction-search
	// backtrack counter. nil disables it.
	Obs *obs.Registry
}

func (o Options) faultCount(p substar.Pattern) int {
	if o.FaultCount == nil {
		return 0
	}
	return o.FaultCount(p)
}

func (o Options) excluded(p substar.Pattern) bool {
	return o.Exclude != nil && o.Exclude(p)
}

// Initial builds the first super-ring from the pos-partition of S_n: the
// n children are pairwise adjacent (they differ exactly at pos), so any
// cyclic order is an R_{n-1}; the options choose one that spreads and,
// when required, separates fault-bearing children.
func Initial(n, pos int, opts Options) (*Ring, error) {
	span := opts.Obs.Span("superring.phase.initial")
	defer span.End()
	children := substar.Whole(n).Partition(pos)
	kept := children[:0:0]
	for _, c := range children {
		if !opts.excluded(c) {
			kept = append(kept, c)
		}
	}
	if len(kept) < 3 {
		return nil, fmt.Errorf("superring: only %d children survive exclusion", len(kept))
	}
	arranged, err := arrangeCycle(kept, opts)
	if err != nil {
		return nil, err
	}
	return New(n, arranged)
}

// arrangeCycle orders patterns into a cyclic sequence with no two
// fault-bearing entries adjacent when SpreadFaults is set, via a small
// backtracking search (the sequences involved have length <= n).
func arrangeCycle(ps []substar.Pattern, opts Options) ([]substar.Pattern, error) {
	if !opts.SpreadFaults || opts.FaultCount == nil {
		return ps, nil
	}
	faulty := make([]bool, len(ps))
	numFaulty := 0
	for i, p := range ps {
		if opts.faultCount(p) > 0 {
			faulty[i] = true
			numFaulty++
		}
	}
	if numFaulty <= 1 {
		return ps, nil
	}
	if numFaulty > len(ps)/2 {
		return nil, fmt.Errorf("%w: %d faulty among %d supervertices cannot be non-adjacent in a cycle",
			ErrUnsatisfiable, numFaulty, len(ps))
	}
	// Interleave: place faulty patterns at positions 0, 2, 4, ... and
	// healthy ones in the remaining slots; with numFaulty <= len/2 this
	// never puts two faulty entries next to each other (including the
	// wraparound, because position 2*(numFaulty-1) < len-1... position
	// len-1 is healthy whenever numFaulty <= len/2).
	out := make([]substar.Pattern, 0, len(ps))
	var fs, hs []substar.Pattern
	for i, p := range ps {
		if faulty[i] {
			fs = append(fs, p)
		} else {
			hs = append(hs, p)
		}
	}
	for len(fs) > 0 || len(hs) > 0 {
		if len(fs) > 0 {
			out = append(out, fs[0])
			fs = fs[1:]
		}
		if len(hs) > 0 {
			out = append(out, hs[0])
			hs = hs[1:]
		}
	}
	// Verify the wraparound.
	for i := range out {
		if opts.faultCount(out[i]) > 0 && opts.faultCount(out[(i+1)%len(out)]) > 0 {
			return nil, fmt.Errorf("%w: fault interleaving failed", ErrUnsatisfiable)
		}
	}
	return out, nil
}

// Refine performs the pos-partition on the ring (Definition 5) and
// threads a Hamiltonian path through each resulting clique, returning
// the ring of order-(r-1) supervertices. The construction follows
// Lemma 3's proof:
//
//   - entry and exit children of each clique are never the child blocked
//     toward the relevant neighbor (otherwise no superedge would exist);
//   - the second and second-to-last children of each clique path are
//     also connected to the neighboring supervertex ("first/last two
//     connected"), which is what makes property (P2) hold after the
//     final refinement;
//   - junction children are healthy and fault-bearing children are
//     spread when the options demand it, yielding (P3).
//
// The junction symbols are chosen by a sequential scan with local
// backtracking; within the paper's fault budget a valid assignment
// always exists.
func (r *Ring) Refine(pos int, opts Options) (*Ring, error) {
	span := opts.Obs.Span("superring.phase.refine")
	defer span.End()
	m := len(r.verts)
	// The cliques' children, back to back in one array: clique k is
	// kids[bounds[k]:bounds[k+1]].
	kids := make([]substar.Pattern, 0, m*r.order)
	bounds := make([]int32, m+1)
	blockedPrev := make([]substar.Pattern, m) // child of k not adjacent to k-1
	blockedNext := make([]substar.Pattern, m) // child of k not adjacent to k+1
	for k := 0; k < m; k++ {
		from := len(kids)
		kids = r.verts[k].AppendPartition(kids, pos)
		kept := kids[:from]
		for _, c := range kids[from:] {
			if !opts.excluded(c) {
				kept = append(kept, c)
			}
		}
		kids = kept
		if len(kids)-from < 3 {
			return nil, fmt.Errorf("superring: clique %d has only %d children after exclusion", k, len(kids)-from)
		}
		bounds[k+1] = int32(len(kids))
		blockedPrev[k] = r.verts[k].BlockedChild(r.At(k-1), pos)
		blockedNext[k] = r.verts[k].BlockedChild(r.At(k+1), pos)
	}
	clique := func(k int) []substar.Pattern { return kids[bounds[k]:bounds[k+1]] }

	// Junction symbol q_k joins clique k to clique k+1: the exit of k is
	// verts[k] with q_k fixed at pos, the entry of k+1 is verts[k+1]
	// with q_k fixed at pos. Valid q_k are the free symbols shared by
	// both parents, avoiding excluded or (when required) faulty children
	// on either side; candidates[k] holds them as a mask, bit q-1 for
	// symbol q, tried in increasing order.
	candidates := make([]uint32, m)
	for k := 0; k < m; k++ {
		next := (k + 1) % m
		var cs uint32
		for shared := sharedFreeSymbols(r.verts[k], r.At(k+1)); shared != 0; shared &= shared - 1 {
			q := uint8(bits.TrailingZeros32(shared)) + 1
			exitChild := r.verts[k].Fix(pos, q)
			entryChild := r.verts[next].Fix(pos, q)
			if opts.excluded(exitChild) || opts.excluded(entryChild) {
				continue
			}
			if opts.HealthyJunctions && (opts.faultCount(exitChild) > 0 || opts.faultCount(entryChild) > 0) {
				continue
			}
			cs |= 1 << (q - 1)
		}
		if cs == 0 {
			return nil, fmt.Errorf("%w: no junction candidate between supervertices %d and %d",
				ErrUnsatisfiable, k, next)
		}
		candidates[k] = cs
	}

	qs, err := chooseJunctions(r, pos, clique, blockedPrev, blockedNext, candidates, opts)
	if err != nil {
		return nil, err
	}

	// Thread the clique paths. Each path orders exactly its clique's
	// children, so it replaces them in place and the children array
	// becomes the refined ring.
	for k := 0; k < m; k++ {
		entry := r.verts[k].Fix(pos, qs[(k-1+m)%m])
		exit := r.verts[k].Fix(pos, qs[k])
		var buf [perm.MaxN]substar.Pattern
		path, ok := orderClique(buf[:0], clique(k), entry, exit, blockedPrev[k], blockedNext[k], opts)
		if !ok {
			return nil, fmt.Errorf("%w: clique %d admits no path from %v to %v", ErrUnsatisfiable, k, entry, exit)
		}
		copy(clique(k), path)
	}
	return New(r.n, kids)
}

// sharedFreeSymbols returns the symbols free in both adjacent patterns,
// i.e. all free symbols of a except the one b fixes at their dif, as a
// mask with bit q-1 set for symbol q.
func sharedFreeSymbols(a, b substar.Pattern) uint32 {
	y := b.SymbolAt(a.Dif(b))
	var buf [perm.MaxN]uint8
	var mask uint32
	for _, q := range a.FreeSymbols(buf[:0]) {
		if q != y {
			mask |= 1 << (q - 1)
		}
	}
	return mask
}

// chooseJunctions assigns a junction symbol to every superedge such that
// every clique path is constructible: consecutive junction symbols of a
// clique must differ (entry != exit) and the clique ordering constraints
// must be satisfiable. A sequential scan with backtracking over the
// (small) candidate masks; the cyclic constraint couples the last choice
// back to the first.
func chooseJunctions(r *Ring, pos int, clique func(k int) []substar.Pattern,
	blockedPrev, blockedNext []substar.Pattern, candidates []uint32, opts Options) ([]uint8, error) {

	m := len(candidates)
	qs := make([]uint8, m)
	tried := make([]uint8, m) // the symbols up to tried[k] are used up at superedge k
	backtracks := opts.Obs.Counter("superring.junction.backtracks")

	feasible := func(k int) bool {
		// Clique k's path runs from Fix(pos, qs[k-1]) to Fix(pos, qs[k]).
		prev := (k - 1 + m) % m
		if qs[prev] == qs[k] {
			return false
		}
		entry := r.verts[k].Fix(pos, qs[prev])
		exit := r.verts[k].Fix(pos, qs[k])
		var buf [perm.MaxN]substar.Pattern
		_, ok := orderClique(buf[:0], clique(k), entry, exit, blockedPrev[k], blockedNext[k], opts)
		return ok
	}

	// Depth-first over superedges 0..m-1. After assigning qs[k] we can
	// check clique k (its entry qs[k-1] is known for k >= 1); assigning
	// qs[m-1] additionally checks clique 0 (closing the cycle). The step
	// bound guards against pathological backtracking; it scales with the
	// ring, since the search takes at least one step per superedge and
	// the last refinement at n = 12 has 3,991,680 of them.
	maxSteps := 1 << 20
	if s := 32 * m; s > maxSteps {
		maxSteps = s
	}
	steps := 0
	k := 0
	for k < m {
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("%w: junction search exceeded backtracking budget", ErrUnsatisfiable)
		}
		left := candidates[k] >> tried[k] << tried[k]
		if left == 0 {
			// Exhausted: back up.
			tried[k] = 0
			k--
			if k < 0 {
				return nil, fmt.Errorf("%w: no junction assignment closes the ring", ErrUnsatisfiable)
			}
			tried[k] = qs[k]
			backtracks.Inc()
			continue
		}
		qs[k] = uint8(bits.TrailingZeros32(left)) + 1
		ok := true
		if k >= 1 && !feasible(k) {
			ok = false
		}
		if ok && k == m-1 && !feasible(0) {
			ok = false
		}
		if !ok {
			tried[k] = qs[k]
			backtracks.Inc()
			continue
		}
		k++
	}
	return qs, nil
}

// orderClique finds a Hamiltonian ordering of the clique's children
// starting at entry and ending at exit such that:
//
//   - the second child differs from blockedPrev (so the first two
//     children are connected to the previous supervertex);
//   - the second-to-last child differs from blockedNext;
//   - entry != blockedPrev and exit != blockedNext;
//   - fault-bearing children are pairwise non-consecutive when
//     opts.SpreadFaults is set.
//
// All children of one clique are pairwise adjacent, so any ordering is a
// valid path; only the constraints restrict the choice. The search is a
// DFS over at most len(children) <= n positions, on the stack; the
// ordering is appended to dst, which Refine passes as a stack buffer.
func orderClique(dst, children []substar.Pattern, entry, exit, blockedPrev, blockedNext substar.Pattern, opts Options) ([]substar.Pattern, bool) {
	if entry == exit {
		return dst, false
	}
	if entry == blockedPrev || exit == blockedNext {
		return dst, false
	}
	s := cliqueOrder{children: children, blockedPrev: blockedPrev, blockedNext: blockedNext}
	entryIdx, exitIdx := -1, -1
	for i, ch := range children {
		if ch == entry {
			entryIdx = i
		}
		if ch == exit {
			exitIdx = i
		}
		s.faulty[i] = opts.SpreadFaults && opts.faultCount(ch) > 0
	}
	if entryIdx < 0 || exitIdx < 0 {
		return dst, false
	}
	s.exitIdx = exitIdx
	s.order[0] = uint8(entryIdx)
	s.used[entryIdx] = true
	s.depth = 1
	if !s.extend() {
		return dst, false
	}
	for _, idx := range s.order[:len(children)] {
		dst = append(dst, children[idx])
	}
	return dst, true
}

// cliqueOrder is orderClique's search state: a partial ordering of at
// most perm.MaxN children, held in fixed arrays.
type cliqueOrder struct {
	children                 []substar.Pattern
	blockedPrev, blockedNext substar.Pattern
	exitIdx                  int
	faulty, used             [perm.MaxN]bool
	order                    [perm.MaxN]uint8
	depth                    int
}

// extend fills the ordering from slot depth on, backtracking over the
// unused children; it reports whether the ordering completes.
func (s *cliqueOrder) extend() bool {
	c := len(s.children)
	if s.depth == c {
		return true
	}
	slot := s.depth // 0-based position being filled
	last := slot == c-1
	for i := 0; i < c; i++ {
		if s.used[i] {
			continue
		}
		if last != (i == s.exitIdx) {
			continue // exit goes exactly in the final slot
		}
		if slot == 1 && s.children[i] == s.blockedPrev {
			continue
		}
		if slot == c-2 && s.children[i] == s.blockedNext {
			continue
		}
		if s.faulty[i] && s.faulty[s.order[slot-1]] {
			continue
		}
		s.used[i] = true
		s.order[slot] = uint8(i)
		s.depth++
		if s.extend() {
			return true
		}
		s.depth--
		s.used[i] = false
	}
	return false
}
