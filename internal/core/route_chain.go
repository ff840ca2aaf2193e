package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/superring"
)

// routeChain threads the concrete s-t path through the skeleton of an
// anchored block chain. It mirrors routeRing with three differences:
// the first block's entry is the source vertex itself, the last block's
// exit is the target, and — when s and t share a partite set — exactly
// one block is routed with an odd vertex count to fix the global parity
// (preferring a faulty block whose fault lies on the other side, which
// then sheds only its fault).
func (sk *skeleton) routeChain(chain *superring.Ring, fs *faults.Set, s, t perm.Code, bestEffort bool, in *instr) error {
	m := chain.Len()
	n := chain.N()
	if sk.blockOf(s) != 0 || sk.blockOf(t) != m-1 {
		return fmt.Errorf("core: internal: chain anchors misplaced")
	}
	sk.entry[0] = s

	// The source cannot double as the first exit, nor the target as
	// the last entry.
	bspan := in.span("core.phase.blocks")
	rt, empty := newRouter(sk, chain.Vertices(), fs, m-1, func(k int, u, w perm.Code) bool {
		return !(k == 0 && u == s) && !(k+1 == m-1 && w == t)
	})
	bspan.End()
	if empty >= 0 {
		return fmt.Errorf("core: chain gap %d has no healthy crossing edge", empty)
	}
	rt.last = t

	needOdd := s.Parity(n) == t.Parity(n)
	jspan := in.span("core.phase.junction")
	defer jspan.End()
	for _, odd := range oddBlockCandidates(sk, n, s, needOdd) {
		rt.targets = func(k, vf int) []int { return blockTargets(vf, k == odd, bestEffort) }
		if err := rt.search(true, in); err == nil {
			sk.layout()
			in.blocksRouted(m)
			return nil
		}
	}
	return fmt.Errorf("core: no odd-block designation routes the chain (s, t %v-parity)", needOdd)
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
