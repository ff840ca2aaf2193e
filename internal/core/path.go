package core

import (
	"errors"
	"fmt"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/substar"
	"repro/internal/superring"
)

// Longest fault-free s-t paths (an extension beyond the paper; the
// authors' follow-up work studies exactly this problem). With
// |Fv| + |Fe| <= n-3 and healthy distinct s, t:
//
//   - s and t in different partite sets: a healthy path visiting
//     n! - 2|Fv| vertices (the same yield as the ring);
//   - same partite set: n! - 2|Fv| - 1 vertices, and one better
//     (n! - 2|Fv| + 1) whenever some faulty block's fault lies in the
//     other partite set, because that block can then shed only its
//     fault (the 23-vertex block paths verified in internal/pathsearch).
//
// The construction reuses the paper's machinery with the super-ring
// replaced by a super-CHAIN anchored at s and t: the first partition
// position must distinguish s from t (SeparatingPositionsSplitting), so
// their blocks sit at opposite ends, and every refinement forces the
// s-descendant first and the t-descendant last.

// PathResult is a verified s-t path embedding.
type PathResult struct {
	N    int
	S, T perm.Code
	Path []perm.Code // Path[0] == S, Path[len-1] == T

	VertexFaults int
	EdgeFaults   int
	// Guarantee is the assured number of visited vertices: n!-2|Fv| for
	// endpoints in different partite sets, n!-2|Fv|-1 otherwise.
	Guarantee  int
	Guaranteed bool
	Blocks     int
}

// Len returns the number of vertices the path visits.
func (r *PathResult) Len() int { return len(r.Path) }

// ErrBadEndpoints reports invalid, equal or faulty endpoints.
var ErrBadEndpoints = errors.New("core: invalid path endpoints")

// EmbedPath constructs a longest healthy path from s to t in S_n
// avoiding the given faults. Preconditions mirror Embed's, plus both
// endpoints must be healthy, distinct vertices.
func EmbedPath(n int, fs *faults.Set, s, t perm.Code, cfg Config) (*PathResult, error) {
	if n < 3 || n > perm.MaxN {
		return nil, fmt.Errorf("core: dimension %d out of range [3,%d]", n, perm.MaxN)
	}
	if fs == nil {
		fs = faults.NewSet(n)
	}
	if fs.N() != n {
		return nil, fmt.Errorf("core: fault set is for S_%d, embedding in S_%d", fs.N(), n)
	}
	if !s.Valid(n) || !t.Valid(n) || s == t {
		return nil, fmt.Errorf("%w: need two distinct vertices of S_%d", ErrBadEndpoints, n)
	}
	if fs.HasVertex(s) || fs.HasVertex(t) {
		return nil, fmt.Errorf("%w: endpoint is faulty", ErrBadEndpoints)
	}
	nv, ne := fs.NumVertices(), fs.NumEdges()
	withinBudget := nv+ne <= faults.MaxTolerated(n)
	if !withinBudget && !cfg.BestEffort {
		return nil, fmt.Errorf("%w: |Fv|=%d, |Fe|=%d, n=%d", ErrBudget, nv, ne, n)
	}

	sameSide := s.Parity(n) == t.Parity(n)
	res := &PathResult{
		N: n, S: s, T: t,
		VertexFaults: nv,
		EdgeFaults:   ne,
		Guarantee:    perm.Factorial(n) - 2*nv,
		Guaranteed:   withinBudget,
	}
	if sameSide {
		res.Guarantee--
	}

	var err error
	switch {
	case n <= 4:
		err = embedPathSmall(res, fs)
	default:
		err = embedPathLarge(res, fs, cfg)
	}
	if err != nil {
		return nil, err
	}

	if len(res.Path) == 0 || res.Path[0] != s || res.Path[len(res.Path)-1] != t {
		return nil, errors.New("core: internal: path endpoints wrong")
	}
	if res.Guaranteed && res.Len() < res.Guarantee {
		return nil, fmt.Errorf("core: internal: path length %d under guarantee %d", res.Len(), res.Guarantee)
	}
	if err := check.Path(star.New(n), res.Path, fs); err != nil {
		return nil, fmt.Errorf("core: self-verification failed: %w", err)
	}
	return res, nil
}

// embedPathSmall solves n = 3, 4 by direct search on the (canonical)
// block.
func embedPathSmall(res *PathResult, fs *faults.Set) error {
	n := res.N
	if n == 3 {
		// S_3 is a 6-cycle; with the zero fault budget the best s-t path
		// follows the longer arc.
		if fs.NumVertices() > 0 || fs.NumEdges() > 0 {
			return fmt.Errorf("%w: S_3 tolerates no faults", ErrNoRing)
		}
		plan, err := Embed(3, nil, Config{})
		if err != nil {
			return err
		}
		ring := plan.Ring()
		var si, ti int
		for i, v := range ring {
			if v == res.S {
				si = i
			}
			if v == res.T {
				ti = i
			}
		}
		// Two arcs; take the longer.
		m := len(ring)
		fwd := (ti - si + m) % m
		var path []perm.Code
		if fwd >= m-fwd {
			for i := 0; i <= fwd; i++ {
				path = append(path, ring[(si+i)%m])
			}
		} else {
			for i := 0; i <= m-fwd; i++ {
				path = append(path, ring[(si-i+2*m)%m])
			}
		}
		res.Path = path
		// The 6-cycle bound depends on the arc; adjust the guarantee to
		// what is structurally possible.
		if res.Len() < res.Guarantee {
			res.Guarantee = res.Len()
		}
		return nil
	}

	// n == 4: exact search.
	block, err := pathsearch.NewBlock(substar.Whole(4))
	if err != nil {
		return err
	}
	var avoidV []perm.Code
	avoidV = append(avoidV, fs.Vertices()...)
	var avoidE [][2]perm.Code
	for _, e := range fs.Edges() {
		avoidE = append(avoidE, [2]perm.Code{e.U, e.V})
	}
	spec := pathsearch.PathSpec{From: res.S, To: res.T, AvoidV: avoidV, AvoidE: avoidE}
	best := block.MaxPathLen(spec)
	if best == 0 {
		return fmt.Errorf("%w: no healthy path in S_4", ErrNoRing)
	}
	spec.Target = best
	path, ok := block.Path(spec)
	if !ok {
		return errors.New("core: internal: max path vanished")
	}
	res.Path = path
	if res.Len() < res.Guarantee {
		res.Guarantee = res.Len() // |Fe| > 0 can cost a vertex in S_4's tiny budget
	}
	return nil
}

// embedPathLarge runs the chain pipeline for n >= 5.
func embedPathLarge(res *PathResult, fs *faults.Set, cfg Config) error {
	n := res.N
	positions, separated, err := fs.SeparatingPositionsSplitting(res.S, res.T)
	if err != nil {
		return err
	}
	if !separated && !cfg.BestEffort {
		return fmt.Errorf("core: the forced anchor position prevents Lemma 2 separation for %v; retry with BestEffort", fs)
	}

	chain, err := buildChain(n, positions, fs, res.S, res.T)
	if err != nil {
		return err
	}
	res.Blocks = chain.Len()

	path, err := routeChain(chain, fs, res.S, res.T, cfg)
	if err != nil {
		return err
	}
	res.Path = path
	return nil
}

// buildChain mirrors buildR4 for the anchored chain.
func buildChain(n int, positions []int, fs *faults.Set, s, t perm.Code) (*superring.Chain, error) {
	weight := weightOf(fs)
	finalOpts := superring.Options{
		FaultCount:       weight,
		SpreadFaults:     true,
		HealthyJunctions: true,
	}
	midOpts := superring.Options{FaultCount: weight}

	opts := midOpts
	if n == 5 {
		opts = finalOpts
	}
	chain, err := superring.InitialChain(n, positions[0], s, t, opts)
	if err != nil {
		return nil, fmt.Errorf("core: initial chain: %w", err)
	}
	for j := 1; j < len(positions); j++ {
		opts := midOpts
		if j == len(positions)-1 {
			opts = finalOpts
		}
		next, err := chain.Refine(positions[j], s, t, opts)
		if err != nil {
			// The strict discipline can fail on chains (the anchors
			// constrain the ends); retry relaxed — the router degrades
			// per block and the final verification still gates.
			next, err = chain.Refine(positions[j], s, t, superring.Options{FaultCount: weight})
			if err != nil {
				return nil, fmt.Errorf("core: chain refinement %d at position %d: %w", j, positions[j], err)
			}
		}
		chain = next
	}
	if err := chain.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal: %w", err)
	}
	return chain, nil
}
