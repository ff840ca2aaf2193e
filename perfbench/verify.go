package main

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/superring"
)

// guarantee is Theorem 1's ring length for |Fv| = nv vertex faults.
func guarantee(n, nv int) int { return perm.Factorial(n) - 2*nv }

// checkResult accepts an embedding that carries the paper's guarantee
// for exactly nv vertex faults and meets it.
func checkResult(res *core.Result, n, nv int) error {
	switch {
	case res.VertexFaults != nv:
		return fmt.Errorf("S_%d: result counts %d vertex faults, input has %d", n, res.VertexFaults, nv)
	case !res.Guaranteed:
		return fmt.Errorf("S_%d |Fv|=%d: result not marked Guaranteed", n, nv)
	case res.Len() < guarantee(n, nv):
		return fmt.Errorf("S_%d |Fv|=%d: ring length %d < n!-2|Fv| = %d", n, nv, res.Len(), guarantee(n, nv))
	}
	return nil
}

// checkRepair accepts a Plan.Repair outcome: no error, a splice that
// shrank the ring by exactly 2, and a result that still meets the
// guarantee for nv faults.
func checkRepair(rep core.RepairReport, err error, res *core.Result, n, nv int) error {
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	if rep.Outcome == core.RepairSplice && rep.NewLen != rep.OldLen-2 {
		return fmt.Errorf("repair: splice took the ring from %d to %d, want -2", rep.OldLen, rep.NewLen)
	}
	if rep.NewLen != res.Len() {
		return fmt.Errorf("repair: report says length %d, plan holds %d", rep.NewLen, res.Len())
	}
	return checkResult(res, n, nv)
}

// verifyRing runs the independent stream verifier over a ring delivered
// by next and requires a healthy cycle of exactly want vertices that
// meets the guarantee for fs.
func verifyRing(g star.Graph, next func() (perm.Code, bool), fs *faults.Set, want int) error {
	count, err := check.RingStream(g, next, fs, guarantee(g.N(), fs.NumVertices()))
	if err != nil {
		return fmt.Errorf("outside verification: %w", err)
	}
	if count != want {
		return fmt.Errorf("outside verification: counted %d vertices, plan reports %d", count, want)
	}
	return nil
}

// sliceIter iterates an in-memory ring.
func sliceIter(ring []perm.Code) func() (perm.Code, bool) {
	i := 0
	return func() (perm.Code, bool) {
		if i == len(ring) {
			return 0, false
		}
		i++
		return ring[i-1], true
	}
}

// paperSpec is the R4 construction Embedder.Embed uses under the strict
// paper algorithm.
func paperSpec(positions []int) core.BuildSpec {
	return core.BuildSpec{
		Positions:    append([]int(nil), positions...),
		SpreadFaults: true, HealthyBorders: true,
		VerifyP1: true, VerifyP2: true, VerifyP3: true,
	}
}

// paperTargets is the per-block target of the strict paper algorithm:
// 24 vertices, 22 with a vertex fault.
func paperTargets(vf int) []int { return []int{pathsearch.BlockOrder - 2*vf} }

// decompose replays the strict embed of fs through each layer's public
// function, spanning every call under parent: Lemma 2 separation
// (faults), R4 construction (superring via core.BuildR4), block routing
// and assembly (core.RouteR4), the map verifier (check.Ring, skipped
// when checkRing is false), and Block.Path on up to paths sampled
// blocks (pathsearch). It returns the time the first four layers took.
func decompose(tr *tracer, parent int32, g star.Graph, fs *faults.Set, checkRing bool, paths int, pick func(int) int) (time.Duration, error) {
	n := g.N()
	d := tr.begin(lDecompose, parent)
	defer tr.end(d)

	s := tr.begin(lSeparation, d)
	positions, ok := fs.SeparatingPositions()
	covered := tr.end(s)
	if !ok {
		return 0, fmt.Errorf("decompose: Lemma 2 separation failed for %v", fs)
	}
	b := tr.begin(lBuildR4, d)
	r4, err := core.BuildR4(n, fs, paperSpec(positions))
	covered += tr.end(b)
	if err != nil {
		return 0, fmt.Errorf("decompose: %w", err)
	}
	r := tr.begin(lRoute, d)
	ring, err := core.RouteR4(r4, fs, paperTargets, core.Config{})
	covered += tr.end(r)
	if err != nil {
		return 0, fmt.Errorf("decompose: %w", err)
	}
	if checkRing {
		c := tr.begin(lCheckRing, d)
		err = check.Ring(g, ring, fs, guarantee(n, fs.NumVertices()))
		covered += tr.end(c)
		if err != nil {
			return 0, fmt.Errorf("decompose: %w", err)
		}
	}
	return covered, replayBlocks(tr, d, r4, fs, ring, paths, pick)
}

// replayBlocks re-solves sampled blocks' segments of ring with
// Block.Path, one span per call; the ring lists the R4's blocks in
// order, each 24 vertices minus 2 per vertex fault.
func replayBlocks(tr *tracer, parent int32, r4 *superring.Ring, fs *faults.Set, ring []perm.Code, paths int, pick func(int) int) error {
	offsets := make([]int, r4.Len()+1)
	for k := 0; k < r4.Len(); k++ {
		offsets[k+1] = offsets[k] + paperTargets(fs.CountIn(r4.At(k)))[0]
	}
	if offsets[r4.Len()] != len(ring) {
		return fmt.Errorf("replay: block lengths sum to %d, ring has %d", offsets[r4.Len()], len(ring))
	}
	for i := 0; i < paths; i++ {
		k := pick(r4.Len())
		pat := r4.At(k)
		block, err := pathsearch.NewBlock(pat)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		seg := ring[offsets[k]:offsets[k+1]]
		spec := pathsearch.PathSpec{
			From: seg[0], To: seg[len(seg)-1],
			AvoidV: fs.FaultyIn(pat, nil), Target: len(seg),
		}
		sp := tr.begin(lBlockPath, parent)
		_, ok := block.Path(spec)
		tr.end(sp)
		if !ok {
			return fmt.Errorf("replay: block %d admits no %d-vertex path between its junctions", k, len(seg))
		}
	}
	return nil
}
