package core

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pathsearch"
	"repro/internal/perm"
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
// cut open into a super-chain anchored at s and t (an open
// superring.Ring): the first partition position must distinguish s
// from t (SeparatingPositionsSplitting), so their blocks sit at
// opposite ends, and every refinement keeps the s-descendant first and
// the t-descendant last.

// ErrBadEndpoints reports invalid, equal or faulty endpoints.
var ErrBadEndpoints = errors.New("core: invalid path endpoints")

// EmbedPath constructs a longest healthy path from s to t in S_n
// avoiding the given faults and returns it as a Plan whose ring is
// open: Cursor and Ring emit the path from s to t, and Result carries
// its length and guarantee. Preconditions mirror Embed's, plus both
// endpoints must be healthy, distinct vertices.
func EmbedPath(n int, fs *faults.Set, s, t perm.Code, cfg Config) (*Plan, error) {
	e, err := NewEmbedder(n, cfg)
	if err != nil {
		return nil, err
	}
	return e.embed(nil, fs, &[2]perm.Code{s, t})
}

// embedPathSmall solves n = 3, 4 by direct search on the (canonical)
// block. The path becomes a skeleton of one block, as embedSmall's
// cycle does.
func embedPathSmall(res *Result, fs *faults.Set, s, t perm.Code) (*skeleton, error) {
	var path []perm.Code
	if res.N == 3 {
		// S_3 is a 6-cycle (embedS3 rejects any fault); the best s-t path
		// follows the longer arc.
		ring, err := embedS3(fs)
		if err != nil {
			return nil, err
		}
		var si, ti int
		for i, v := range ring {
			if v == s {
				si = i
			}
			if v == t {
				ti = i
			}
		}
		// Two arcs; take the longer.
		m := len(ring)
		fwd := (ti - si + m) % m
		if fwd >= m-fwd {
			for i := 0; i <= fwd; i++ {
				path = append(path, ring[(si+i)%m])
			}
		} else {
			for i := 0; i <= m-fwd; i++ {
				path = append(path, ring[(si-i+2*m)%m])
			}
		}
	} else {
		// n == 4: exact search.
		block, err := pathsearch.NewBlock(substar.Whole(4))
		if err != nil {
			return nil, err
		}
		var avoidV []perm.Code
		avoidV = append(avoidV, fs.Vertices()...)
		var avoidE [][2]perm.Code
		for _, e := range fs.Edges() {
			avoidE = append(avoidE, [2]perm.Code{e.U, e.V})
		}
		var ok bool
		path, ok = block.MaxPath(pathsearch.PathSpec{From: s, To: t, AvoidV: avoidV, AvoidE: avoidE})
		if !ok {
			return nil, fmt.Errorf("%w: no healthy path in S_4", ErrNoRing)
		}
	}
	// The 6-cycle's bound depends on the arc, and |Fe| > 0 can cost a
	// vertex in S_4's tiny budget: adjust the guarantee to what is
	// structurally possible.
	if len(path) < res.Guarantee {
		res.Guarantee = len(path)
	}
	return oneBlock(path)
}

// embedPathLarge runs the chain pipeline for n >= 5: Lemma 2
// separation with a first position that splits s from t, the anchored
// chain's refinement, and the routing that returns the skeleton.
func embedPathLarge(res *Result, fs *faults.Set, s, t perm.Code, cfg Config, in *instr) (*skeleton, error) {
	sspan := in.span("core.phase.separation")
	positions, separated, err := fs.SeparatingPositionsSplitting(s, t)
	sspan.End()
	if err != nil {
		return nil, err
	}
	if !separated && !cfg.BestEffort {
		return nil, fmt.Errorf("core: the forced anchor position prevents Lemma 2 separation for %v; retry with BestEffort", fs)
	}
	res.Positions = positions

	bspan := in.span("core.phase.build_r4")
	chain, err := buildChain(res.N, positions, fs, s, t, cfg.Obs)
	bspan.End()
	if err != nil {
		return nil, err
	}
	res.Blocks = chain.Len()

	sk, err := routeChain(chain, fs, s, t, cfg, in)
	if err != nil {
		return nil, err
	}
	res.FaultyBlocks = sk.vertexFaultBlocks()
	return sk, nil
}

// buildChain mirrors buildR4 for the anchored chain, an open ring.
func buildChain(n int, positions []int, fs *faults.Set, s, t perm.Code, reg *obs.Registry) (*superring.Ring, error) {
	weight := weightOf(fs)
	finalOpts := superring.Options{
		FaultCount:       weight,
		SpreadFaults:     true,
		HealthyJunctions: true,
		Obs:              reg,
	}
	midOpts := superring.Options{FaultCount: weight, Obs: reg}

	opts := midOpts
	if n == 5 {
		opts = finalOpts
	}
	chain, err := superring.InitialChain(n, positions[0], s, t, opts)
	if err != nil {
		return nil, fmt.Errorf("core: initial chain: %w", err)
	}
	for j := 1; j < len(positions); j++ {
		final := j == len(positions)-1
		opts := midOpts
		if final {
			opts = finalOpts
		}
		next, err := chain.Refine(positions[j], opts)
		if err != nil && final {
			// The strict discipline can fail on chains (the anchors
			// constrain the ends); retry relaxed — the router degrades
			// per block and the final verification still gates. Any
			// other refinement already ran relaxed.
			next, err = chain.Refine(positions[j], midOpts)
		}
		if err != nil {
			return nil, fmt.Errorf("core: chain refinement %d at position %d: %w", j, positions[j], err)
		}
		chain = next
	}
	if err := chain.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal: %w", err)
	}
	return chain, nil
}
