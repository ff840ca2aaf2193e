package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/superring"
)

// routeChain threads the concrete s-t path through an anchored block
// chain. It mirrors RouteR4 with three differences: the first block's
// entry is the source vertex itself, the last block's exit is the
// target, and — when s and t share a partite set — exactly one block is
// routed with an odd vertex count to fix the global parity (preferring
// a faulty block whose fault lies on the other side, which then sheds
// only its fault).
func routeChain(chain *superring.Chain, fs *faults.Set, s, t perm.Code, cfg Config) ([]perm.Code, error) {
	m := chain.Len()
	n := chain.N()
	plans, err := newBlockPlans(chain.Vertices(), fs)
	if err != nil {
		return nil, err
	}
	if !plans[0].block.Contains(s) || !plans[m-1].block.Contains(t) {
		return nil, fmt.Errorf("core: internal: chain anchors misplaced")
	}

	// The source cannot double as the first exit, nor the target as
	// the last entry.
	cands, empty := junctionCandidates(chain.Vertices(), m-1, fs, func(k int, u, w perm.Code) bool {
		return !(k == 0 && u == s) && !(k+1 == m-1 && w == t)
	})
	if empty >= 0 {
		return nil, fmt.Errorf("core: chain gap %d has no healthy crossing edge", empty)
	}

	needOdd := s.Parity(n) == t.Parity(n)
	for _, odd := range oddBlockCandidates(plans, n, s, needOdd) {
		for k, p := range plans {
			p.targets = chainTargets(k == odd, len(p.avoidV), cfg.BestEffort)
		}
		if err := chooseChainJunctions(plans, cands, s, t); err == nil {
			newInstr(cfg.Obs, n).blocksRouted(m)
			return newRouted(plans).drain()
		}
	}
	return nil, fmt.Errorf("core: no odd-block designation routes the chain (s, t %v-parity)", needOdd)
}

// oddBlockCandidates orders the blocks to try as the designated
// odd-length block: none when the endpoints already differ in parity;
// otherwise faulty blocks whose fault sits on the other side (those
// UPGRADE to 23 vertices), then healthy blocks (23 with one healthy
// vertex shed), then the remaining faulty blocks (21).
func oddBlockCandidates(plans []*blockPlan, n int, s perm.Code, needOdd bool) []int {
	if !needOdd {
		return []int{-1}
	}
	var upgrade, healthy, downgrade []int
	for k, p := range plans {
		switch {
		case len(p.avoidV) == 1 && p.avoidV[0].Parity(n) != s.Parity(n):
			upgrade = append(upgrade, k)
		case len(p.avoidV) == 0:
			healthy = append(healthy, k)
		default:
			downgrade = append(downgrade, k)
		}
	}
	out := append(upgrade, healthy...)
	return append(out, downgrade...)
}

// chainTargets is the per-block length policy for chains.
func chainTargets(odd bool, vf int, bestEffort bool) []int {
	base := blockOrder - 2*vf
	if odd {
		// One vertex more than the even yield when the block can shed
		// only its fault, one fewer otherwise; the search tries both
		// (a healthy block has no fault to shed, so only base-1 = 23 is
		// within the block order).
		ts := []int{}
		if base+1 <= blockOrder {
			ts = append(ts, base+1)
		}
		ts = append(ts, base-1)
		if bestEffort {
			for t := base - 3; t >= 1; t -= 2 {
				ts = append(ts, t)
			}
		}
		return ts
	}
	if !bestEffort {
		return []int{base}
	}
	var ts []int
	for t := base; t >= 2; t -= 2 {
		ts = append(ts, t)
	}
	return ts
}

// chooseChainJunctions assigns the m-1 junctions left to right with
// backtracking; block k is validated once junction k is fixed, and the
// final block when the last junction lands.
func chooseChainJunctions(plans []*blockPlan, cands [][]junction, s, t perm.Code) error {
	m := len(plans)
	if m == 1 {
		if plans[0].route(s, t) {
			return nil
		}
		return fmt.Errorf("core: single-block chain unroutable")
	}

	idx := make([]int, m-1)
	chosen := make([]junction, m-1)

	entryOf := func(k int) perm.Code {
		if k == 0 {
			return s
		}
		return chosen[k-1].w
	}

	const maxSteps = 1 << 21
	steps := 0
	k := 0
	for k < m-1 {
		if steps++; steps > maxSteps {
			return fmt.Errorf("core: chain junction search exceeded %d steps", maxSteps)
		}
		if idx[k] >= len(cands[k]) {
			idx[k] = 0
			k--
			if k < 0 {
				return fmt.Errorf("core: no junction assignment routes the chain")
			}
			idx[k]++
			continue
		}
		chosen[k] = cands[k][idx[k]]
		ok := plans[k].route(entryOf(k), chosen[k].u)
		if ok && k == m-2 && !plans[m-1].route(chosen[m-2].w, t) {
			ok = false
		}
		if !ok {
			idx[k]++
			continue
		}
		k++
	}

	// Replay to pin every block's final entry/exit/length (backtracking
	// may have left stale recordings).
	for k := 0; k < m; k++ {
		exit := t
		if k < m-1 {
			exit = chosen[k].u
		}
		if !plans[k].route(entryOf(k), exit) {
			return fmt.Errorf("core: internal: chain block %d lost feasibility on replay", k)
		}
	}
	return nil
}
