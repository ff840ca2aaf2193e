// Package superring implements the paper's rings of supervertices
// (Definitions 4 and 5): an R_r is a cyclic sequence of order-r
// substars, pairwise adjacent as patterns. The package provides the
// i-partition refinement R_r -> R_{r-1} that underlies Lemma 3 — each
// supervertex splits into a clique K_r of children, and the refinement
// threads a Hamiltonian path through every clique, interleaved with the
// superedges — together with the entry/exit selection rules (blocked
// children, "first/last two connected" and fault spreading) that give
// the final R4 the paper's properties (P1), (P2) and (P3).
//
// The same refinement builds the longest-path extension's open rings:
// sequences anchored at a source and a target vertex, with no superedge
// closing them.
package superring

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/substar"
)

// Ring is a sequence of pairwise-adjacent order-r substars of S_n.
// A closed ring is cyclic: a superedge joins its last supervertex to its
// first. An open ring has no such superedge; its first supervertex
// contains the anchor vertex s and its last the anchor t, and every
// refinement keeps them there. Index arithmetic is modulo the length.
type Ring struct {
	n     int
	order int
	verts []substar.Pattern
	open  bool
	s, t  perm.Code // an open ring's anchors
	// tree records the partitions that built the ring; nil for a ring
	// from New.
	tree *Tree
}

// ErrUnsatisfiable reports that no arrangement satisfying the requested
// constraints exists; within the paper's fault budget this indicates a
// bug rather than a legitimate outcome, so callers treat it as fatal.
var ErrUnsatisfiable = errors.New("superring: constraints unsatisfiable")

// New wraps a validated cyclic sequence of supervertices into a closed
// Ring.
func New(n int, verts []substar.Pattern) (*Ring, error) {
	return newRing(&Ring{n: n, verts: verts})
}

// newRing checks that r's supervertices share dimension and order and
// that every superedge joins adjacent ones, and sets r's order.
func newRing(r *Ring) (*Ring, error) {
	if len(r.verts) < 3 {
		return nil, fmt.Errorf("superring: ring needs >= 3 supervertices, got %d", len(r.verts))
	}
	r.order = r.verts[0].R()
	edges := r.superedges()
	for i, v := range r.verts {
		if v.N() != r.n {
			return nil, fmt.Errorf("superring: vertex %d has dimension %d, want %d", i, v.N(), r.n)
		}
		if v.R() != r.order {
			return nil, fmt.Errorf("superring: vertex %d has order %d, want %d", i, v.R(), r.order)
		}
		if j := (i + 1) % len(r.verts); i < edges && !v.Adjacent(r.verts[j]) {
			return nil, fmt.Errorf("superring: vertices %d (%v) and %d (%v) not adjacent", i, v, j, r.verts[j])
		}
	}
	return r, nil
}

// superedges returns the number of superedges: one per supervertex on
// a closed ring, one fewer on an open one. Superedge k joins
// supervertex k to supervertex k+1.
func (r *Ring) superedges() int {
	if r.open {
		return len(r.verts) - 1
	}
	return len(r.verts)
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

// Tree returns the record of the partitions that built the ring, which
// locates the supervertex of any vertex, or nil for a ring from New.
func (r *Ring) Tree() *Tree { return r.tree }

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
	return newRing(&Ring{n: n, verts: arranged, tree: rootTree(n, pos, arranged)})
}

// rootTree returns the one-level record of an initial ring: S_n
// partitioned at pos into the children verts, in ring order.
func rootTree(n, pos int, verts []substar.Pattern) *Tree {
	t, _ := new(Tree).extend(pos, 1, n) // at most 16 symbols: it cannot overflow
	for d, c := range verts {
		t.set(0, d, c.SymbolAt(pos))
	}
	if len(verts) < n {
		t.setStarts([]int32{0, int32(len(verts))})
	}
	return t
}

// InitialChain builds the first open ring from the pos-partition of
// S_n: the child containing s comes first, the child containing t last
// (s and t must hold different symbols at pos), and the other children
// run between them, fault-bearing ones spread when requested.
func InitialChain(n, pos int, s, t perm.Code, opts Options) (*Ring, error) {
	span := opts.Obs.Span("superring.phase.initial")
	defer span.End()
	if s.Symbol(pos) == t.Symbol(pos) {
		return nil, fmt.Errorf("superring: source and target agree at position %d; no chain anchors", pos)
	}
	children := substar.Whole(n).Partition(pos)
	var first, last substar.Pattern
	interior := children[:0:0]
	for _, ch := range children {
		switch {
		case ch.Contains(s):
			first = ch
		case ch.Contains(t):
			last = ch
		default:
			interior = append(interior, ch)
		}
	}
	interior, _ = interleave(interior, opts)
	verts := append(make([]substar.Pattern, 0, len(children)), first)
	verts = append(append(verts, interior...), last)
	return newRing(&Ring{n: n, verts: verts, open: true, s: s, t: t, tree: rootTree(n, pos, verts)})
}

// arrangeCycle orders patterns into a cyclic sequence with no two
// fault-bearing entries adjacent when SpreadFaults is set.
func arrangeCycle(ps []substar.Pattern, opts Options) ([]substar.Pattern, error) {
	out, numFaulty := interleave(ps, opts)
	if numFaulty <= 1 {
		return ps, nil
	}
	if numFaulty > len(ps)/2 {
		return nil, fmt.Errorf("%w: %d faulty among %d supervertices cannot be non-adjacent in a cycle",
			ErrUnsatisfiable, numFaulty, len(ps))
	}
	// With numFaulty <= len/2 the faulty patterns land at positions 0,
	// 2, 4, ... and position len-1 is healthy; verify the wraparound.
	for i := range out {
		if opts.faultCount(out[i]) > 0 && opts.faultCount(out[(i+1)%len(out)]) > 0 {
			return nil, fmt.Errorf("%w: fault interleaving failed", ErrUnsatisfiable)
		}
	}
	return out, nil
}

// interleave alternates fault-bearing and healthy patterns, each kind
// in its given order and a fault-bearing one first, and returns the
// number of fault-bearing patterns. Unless SpreadFaults is set and
// faults are counted, it returns ps and 0.
func interleave(ps []substar.Pattern, opts Options) ([]substar.Pattern, int) {
	if !opts.SpreadFaults || opts.FaultCount == nil {
		return ps, 0
	}
	var fs, hs []substar.Pattern
	for _, p := range ps {
		if opts.faultCount(p) > 0 {
			fs = append(fs, p)
		} else {
			hs = append(hs, p)
		}
	}
	numFaulty := len(fs)
	out := make([]substar.Pattern, 0, len(ps))
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
	return out, numFaulty
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
// On an open ring the first clique's path enters at the child holding
// s and the last clique's path leaves at the child holding t, so the
// refined ring is open with the same anchors at its ends.
//
// The junction symbols are chosen by a sequential scan with local
// backtracking; within the paper's fault budget a valid assignment
// always exists.
func (r *Ring) Refine(pos int, opts Options) (*Ring, error) {
	span := opts.Obs.Span("superring.phase.refine")
	defer span.End()
	m := len(r.verts)
	f := refinement{
		r: r, pos: pos, opts: opts,
		kids:        make([]substar.Pattern, 0, m*r.order),
		bounds:      make([]int32, m+1),
		blockedPrev: make([]substar.Pattern, m),
		blockedNext: make([]substar.Pattern, m),
		qs:          make([]uint8, r.superedges()),
	}
	if r.open {
		f.first, f.last = r.s.Symbol(pos), r.t.Symbol(pos)
	}
	// Each child is weighed once, here: the junction candidates and
	// every clique ordering the junction search probes read the flags.
	weigh := opts.FaultCount != nil && (opts.SpreadFaults || opts.HealthyJunctions)
	if weigh {
		f.faulty = make([]bool, 0, m*r.order)
	}
	for k := 0; k < m; k++ {
		from := len(f.kids)
		f.kids = r.verts[k].AppendPartition(f.kids, pos)
		kept := f.kids[:from]
		for _, c := range f.kids[from:] {
			if !opts.excluded(c) {
				kept = append(kept, c)
			}
		}
		f.kids = kept
		if weigh {
			for _, c := range f.kids[from:] {
				f.faulty = append(f.faulty, opts.FaultCount(c) > 0)
			}
		}
		if len(f.kids)-from < 3 {
			return nil, fmt.Errorf("superring: clique %d has only %d children after exclusion", k, len(f.kids)-from)
		}
		f.bounds[k+1] = int32(len(f.kids))
		// An open ring's ends have no neighbor beyond them; the zero
		// Pattern they keep matches no child.
		if k > 0 || !r.open {
			f.blockedPrev[k] = r.verts[k].BlockedChild(r.At(k-1), pos)
		}
		if k < m-1 || !r.open {
			f.blockedNext[k] = r.verts[k].BlockedChild(r.At(k+1), pos)
		}
	}

	// Junction symbol q_k joins clique k to clique k+1: the exit of k is
	// verts[k] with q_k fixed at pos, the entry of k+1 is verts[k+1]
	// with q_k fixed at pos. Valid q_k are the free symbols shared by
	// both parents, avoiding an open ring's anchor children and excluded
	// or (when required) faulty children on either side; candidates[k]
	// holds them as a mask, bit q-1 for symbol q, tried in increasing
	// order.
	candidates := make([]uint32, len(f.qs))
	for k := range candidates {
		next := (k + 1) % m
		var cs uint32
		for shared := sharedFreeSymbols(r.verts[k], r.At(k+1)); shared != 0; shared &= shared - 1 {
			q := uint8(bits.TrailingZeros32(shared)) + 1
			if r.open && (k == 0 && q == f.first || next == m-1 && q == f.last) {
				continue
			}
			exitChild := r.verts[k].Fix(pos, q)
			entryChild := r.verts[next].Fix(pos, q)
			if opts.excluded(exitChild) || opts.excluded(entryChild) {
				continue
			}
			if opts.HealthyJunctions && (f.childFaulty(k, exitChild) || f.childFaulty(next, entryChild)) {
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

	if err := f.chooseJunctions(candidates); err != nil {
		return nil, err
	}

	// Thread the clique paths. Each path orders exactly its clique's
	// children, so it replaces them in place and the children array
	// becomes the refined ring. The tree's new level records each path
	// as the symbols its children fix at pos, and the clique bounds
	// when Exclude dropped a child.
	tree, err := r.tree.extend(pos, m, r.order)
	if err != nil {
		return nil, err
	}
	for k := 0; k < m; k++ {
		var buf [perm.MaxN]substar.Pattern
		path, ok := f.thread(buf[:0], k)
		if !ok {
			return nil, fmt.Errorf("%w: clique %d admits no path between its junction children", ErrUnsatisfiable, k)
		}
		copy(f.clique(k), path)
		if tree != nil {
			for d, c := range path {
				tree.set(k, d, c.SymbolAt(pos))
			}
		}
	}
	if tree != nil && len(f.kids) < m*r.order {
		tree.setStarts(f.bounds)
	}
	return newRing(&Ring{n: r.n, verts: f.kids, open: r.open, s: r.s, t: r.t, tree: tree})
}

// refinement is one Refine call's state: the cliques' children back to
// back in one array, each clique's blocked children and the junction
// symbols chosen so far.
type refinement struct {
	r    *Ring
	pos  int
	opts Options
	// Clique k is kids[bounds[k]:bounds[k+1]]. When the options weigh
	// faults (a FaultCount with SpreadFaults or HealthyJunctions),
	// faulty[i] tells whether kids[i] holds one; otherwise faulty is
	// nil and no child counts as faulty.
	kids   []substar.Pattern
	faulty []bool
	bounds []int32
	// blockedPrev[k] is the child of clique k with no cross edge to
	// supervertex k-1, blockedNext[k] the one with none to k+1.
	blockedPrev, blockedNext []substar.Pattern
	// qs[k] is the junction symbol of superedge k.
	qs []uint8
	// first and last are an open ring's anchor symbols at pos: clique 0
	// enters at the child holding s, clique m-1 leaves at the child
	// holding t.
	first, last uint8
}

func (f *refinement) clique(k int) []substar.Pattern {
	return f.kids[f.bounds[k]:f.bounds[k+1]]
}

// childFaulty reports the fault flag of child c of clique k.
func (f *refinement) childFaulty(k int, c substar.Pattern) bool {
	for i, ch := range f.clique(k) {
		if ch == c && f.faulty != nil {
			return f.faulty[int(f.bounds[k])+i]
		}
	}
	return false
}

// thread appends to dst clique k's path (see orderClique) from its entry
// child to its exit child: the children fixing, at pos, the junction
// symbols of the superedges on either side, or an open ring's anchor
// symbols at its ends.
func (f *refinement) thread(dst []substar.Pattern, k int) ([]substar.Pattern, bool) {
	m := len(f.r.verts)
	in, out := f.first, f.last
	if k > 0 || !f.r.open {
		in = f.qs[(k-1+m)%m]
	}
	if k < m-1 || !f.r.open {
		out = f.qs[k]
	}
	if in == out {
		return dst, false
	}
	var faulty []bool
	if f.opts.SpreadFaults && f.faulty != nil {
		faulty = f.faulty[f.bounds[k]:f.bounds[k+1]]
	}
	v := f.r.verts[k]
	return orderClique(dst, f.clique(k), faulty, v.Fix(f.pos, in), v.Fix(f.pos, out), f.blockedPrev[k], f.blockedNext[k])
}

// sharedFreeSymbols returns the symbols free in both adjacent patterns,
// i.e. all free symbols of a except the one b fixes at their dif, as a
// mask with bit q-1 set for symbol q.
func sharedFreeSymbols(a, b substar.Pattern) uint32 {
	y := b.SymbolAt(a.Dif(b))
	return a.FreeSymbolMask() &^ (1 << (y - 1))
}

// chooseJunctions assigns a junction symbol to every superedge such that
// every clique path is constructible: a clique's entry and exit symbols
// must differ and its ordering constraints must be satisfiable. A
// sequential scan with backtracking over the (small) candidate masks;
// on a closed ring the last choice couples back to the first.
func (f *refinement) chooseJunctions(candidates []uint32) error {
	m, edges := len(f.r.verts), len(candidates)
	tried := make([]uint8, edges) // the symbols up to tried[k] are used up at superedge k
	backtracks := f.opts.Obs.Counter("superring.junction.backtracks")
	feasible := func(k int) bool {
		var buf [perm.MaxN]substar.Pattern
		_, ok := f.thread(buf[:0], k)
		return ok
	}
	// Clique k can be checked once junction k is set and its entry is
	// known: from k = 1 on for a closed ring, and for every k on an open
	// one, whose clique 0 enters at s. The last junction also checks the
	// clique after it: clique 0, closing a closed ring, or clique m-1,
	// which leaves at t.
	firstChecked := 1
	if f.r.open {
		firstChecked = 0
	}

	// Depth-first over the superedges. The step bound guards against
	// pathological backtracking; it scales with the ring, since the
	// search takes at least one step per superedge and the last
	// refinement at n = 12 has 3,991,680 of them.
	maxSteps := 1 << 20
	if s := 32 * m; s > maxSteps {
		maxSteps = s
	}
	steps := 0
	k := 0
	for k < edges {
		if steps++; steps > maxSteps {
			return fmt.Errorf("%w: junction search exceeded backtracking budget", ErrUnsatisfiable)
		}
		left := candidates[k] >> tried[k] << tried[k]
		if left == 0 {
			// Exhausted: back up.
			tried[k] = 0
			k--
			if k < 0 {
				return fmt.Errorf("%w: no junction assignment threads the ring", ErrUnsatisfiable)
			}
			tried[k] = f.qs[k]
			backtracks.Inc()
			continue
		}
		f.qs[k] = uint8(bits.TrailingZeros32(left)) + 1
		ok := k < firstChecked || feasible(k)
		if ok && k == edges-1 {
			ok = feasible((k + 1) % m)
		}
		if !ok {
			tried[k] = f.qs[k]
			backtracks.Inc()
			continue
		}
		k++
	}
	return nil
}

// orderClique finds a Hamiltonian ordering of the clique's children
// starting at entry and ending at exit such that:
//
//   - the second child differs from blockedPrev (so the first two
//     children are connected to the previous supervertex);
//   - the second-to-last child differs from blockedNext;
//   - entry != blockedPrev and exit != blockedNext;
//   - fault-bearing children, those whose faulty flag is set, are
//     pairwise non-consecutive; faulty is nil when faults need not be
//     spread.
//
// All children of one clique are pairwise adjacent, so any ordering is a
// valid path; only the constraints restrict the choice. The search is a
// DFS over at most len(children) <= n positions, on the stack; the
// ordering is appended to dst, which Refine passes as a stack buffer.
func orderClique(dst, children []substar.Pattern, faulty []bool, entry, exit, blockedPrev, blockedNext substar.Pattern) ([]substar.Pattern, bool) {
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
		s.faulty[i] = faulty != nil && faulty[i]
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
