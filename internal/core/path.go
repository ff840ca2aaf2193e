package core

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/substar"
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
// For n >= 5 the path is the ring's construction run on an open ring:
// embedLarge and build take the two ends. The first partition position
// must distinguish s from t (SeparatingPositionsSplitting), so their
// blocks sit at opposite ends, every refinement keeps the s-descendant
// first and the t-descendant last, and routeChain routes the skeleton
// from s to t. When no splitting first position separates the faults
// (Lemma 2), strict mode refuses the pair; this happens inside the
// budget at S_5. Best effort then builds the path anyway and returns
// it verified but unguaranteed.

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
	return e.embed(obs.Span{}, fs, &[2]perm.Code{s, t})
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
