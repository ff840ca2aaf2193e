package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/superring"
)

// routeChain threads the concrete s-t path through an anchored block
// chain and returns the routed skeleton. It mirrors routeRing with
// three differences: the first block's entry is the source vertex
// itself, the last block's exit is the target, and — when s and t share
// a partite set — exactly one block is routed with an odd vertex count
// to fix the global parity (preferring a faulty block whose fault lies
// on the other side, which then sheds only its fault).
func routeChain(chain *superring.Ring, fs *faults.Set, s, t perm.Code, cfg Config, in *instr) (*skeleton, error) {
	m := chain.Len()
	n := chain.N()
	pats := chain.Vertices()
	bspan := in.span("core.phase.blocks")
	sk, err := newSkeleton(chain, fs)
	bspan.End()
	if err != nil {
		return nil, err
	}
	if sk.blockOf(s) != 0 || sk.blockOf(t) != m-1 {
		return nil, fmt.Errorf("core: internal: chain anchors misplaced")
	}
	sk.entry[0] = s

	// The source cannot double as the first exit, nor the target as
	// the last entry.
	bspan = in.span("core.phase.blocks")
	rt, empty := newRouter(sk, pats, fs, m-1, func(k int, u, w perm.Code) bool {
		return !(k == 0 && u == s) && !(k+1 == m-1 && w == t)
	})
	bspan.End()
	if empty >= 0 {
		return nil, fmt.Errorf("core: chain gap %d has no healthy crossing edge", empty)
	}
	rt.last = t

	needOdd := s.Parity(n) == t.Parity(n)
	policy := chainTargets(cfg.BestEffort)
	jspan := in.span("core.phase.junction")
	defer jspan.End()
	for _, odd := range oddBlockCandidates(sk, n, s, needOdd) {
		rt.targets = func(k, vf int) []int { return policy(k == odd, vf) }
		if err := rt.search(true, in); err == nil {
			sk.layout()
			in.blocksRouted(m)
			return sk, nil
		}
	}
	return nil, fmt.Errorf("core: no odd-block designation routes the chain (s, t %v-parity)", needOdd)
}

// oddBlockCandidates orders the blocks to try as the designated
// odd-length block: none when the endpoints already differ in parity;
// otherwise faulty blocks whose fault sits on the other side (those
// UPGRADE to 23 vertices), then healthy blocks (23 with one healthy
// vertex shed), then the remaining faulty blocks (21).
func oddBlockCandidates(sk *skeleton, n int, s perm.Code, needOdd bool) []int {
	if !needOdd {
		return []int{-1}
	}
	var upgrade, healthy, downgrade []int
	for k := 0; k < sk.blocks(); k++ {
		avoidV, _ := sk.faults(k)
		switch {
		case len(avoidV) == 1 && avoidV[0].Parity(n) != s.Parity(n):
			upgrade = append(upgrade, k)
		case len(avoidV) == 0:
			healthy = append(healthy, k)
		default:
			downgrade = append(downgrade, k)
		}
	}
	out := append(upgrade, healthy...)
	return append(out, downgrade...)
}

// chainTargets is the per-block length policy for chains: the lists
// for the designated odd block and for the others, by vertex-fault
// count. Each list is built once and shared read-only, since the
// junction search asks for one on every feasibility test.
func chainTargets(bestEffort bool) func(odd bool, vf int) []int {
	var memo [2][blockOrder/2 + 1][]int
	return func(odd bool, vf int) []int {
		o := 0
		if odd {
			o = 1
		}
		if vf < len(memo[o]) && memo[o][vf] != nil {
			return memo[o][vf]
		}
		ts := chainTargetList(odd, vf, bestEffort)
		if vf < len(memo[o]) {
			memo[o][vf] = ts
		}
		return ts
	}
}

// chainTargetList builds one chain target list.
func chainTargetList(odd bool, vf int, bestEffort bool) []int {
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
