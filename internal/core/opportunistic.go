package core

// Opportunistic upgrades (an extension beyond the paper).
//
// Theorem 1 always pays 2 vertices per fault, which is optimal only in
// the worst case (all faults in one partite set). When faults split
// across the bipartition the ceiling n! - 2*max(f0, f1) is higher, and
// a faulty block can contribute 23 vertices instead of 22: the block
// loses only the fault itself, by entering and exiting on the fault's
// opposite side (such a 23-vertex path exists for EVERY same-side
// endpoint pair — verified exhaustively in internal/pathsearch).
//
// The obstruction is global parity. Walking the ring, the entry-side
// parity state flips exactly at upgraded (odd-length) blocks, and an
// upgraded block with fault parity p requires the incoming state to be
// 1-p. Consecutive upgraded blocks must therefore carry alternating
// fault parities around the cycle, so the number of upgrades equals the
// number of maximal runs of equal fault parity among the faulty blocks
// in ring order (an even number; zero when all faults share one side).
//
// planUpgrades selects one block per run and returns the upgrade set
// plus the forced exit-side parity for every block (nil when no upgrade
// is possible, leaving the router parity-unconstrained as in the plain
// algorithm).
func planUpgrades(sk *skeleton, n int) (upgraded []bool, exitParity []int) {
	m := sk.blocks()
	upgraded = make([]bool, m)

	// Fault parity per faulty block, in ring order (blocks hold at most
	// one vertex fault under (P1); opportunistic mode is skipped
	// otherwise).
	type fb struct {
		idx    int
		parity int
	}
	var faulty []fb
	for i, k := range sk.faultVBlock {
		if i > 0 && k == sk.faultVBlock[i-1] {
			return upgraded, nil // outside (P1); no upgrades
		}
		faulty = append(faulty, fb{idx: int(k), parity: sk.faultV[i].Parity(n)})
	}
	if len(faulty) < 2 {
		return upgraded, nil
	}

	// One upgrade per maximal cyclic run of equal parity: select the
	// first member of each run. If every fault shares one parity there
	// is a single run and no alternation is possible.
	runs := 0
	for i, f := range faulty {
		prev := faulty[(i-1+len(faulty))%len(faulty)]
		if f.parity != prev.parity {
			runs++
			upgraded[f.idx] = true
		}
	}
	if runs == 0 {
		return make([]bool, m), nil
	}
	// runs is even for a cyclic binary sequence with both symbols
	// present, so the alternation closes.

	// Propagate the entry-side parity state around the ring. The state
	// is pinned by any upgraded block: entering block k (upgraded,
	// fault parity p) the state must be 1-p; it flips after the block.
	exitParity = make([]int, m)
	entry := -1
	// Find an anchor upgrade to pin the state.
	anchor := -1
	anchorParity := 0
	for _, f := range faulty {
		if upgraded[f.idx] {
			anchor = f.idx
			anchorParity = f.parity
			break
		}
	}
	entry = 1 - anchorParity
	for off := 0; off < m; off++ {
		k := (anchor + off) % m
		if upgraded[k] {
			// Odd block: exit side equals entry side.
			exitParity[k] = entry
		} else {
			exitParity[k] = 1 - entry
		}
		// The junction flips the side again for the next entry.
		entry = 1 - exitParity[k]
	}
	return upgraded, exitParity
}

// opportunisticTargets returns the per-block target policy for the
// upgraded routing: 24 for healthy blocks, 23 for upgraded faulty
// blocks, 22 otherwise. The lists are shared read-only, since the
// junction search asks for one on every feasibility test.
func opportunisticTargets(upgraded []bool) func(blockIdx, vf int) []int {
	healthy, upgrade := []int{blockOrder}, []int{blockOrder - 1}
	plain := paperTargets(false)
	return func(blockIdx, vf int) []int {
		if vf == 0 {
			return healthy
		}
		if upgraded[blockIdx] {
			return upgrade
		}
		return plain(vf)
	}
}
