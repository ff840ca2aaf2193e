package pathsearch

import (
	"testing"

	"repro/internal/perm"
)

// TestHamiltonianTable holds every word of the committed table to the
// search it replaces. For each ordered pair (from, to) of canonical
// vertices the word equals the step word of the path the search finds
// with the memo bypassed; exactly the 288 pairs of opposite parity
// hold a word; and each word replays over positions 1..4 from from to
// to through 24 distinct canonical vertices.
func TestHamiltonianTable(t *testing.T) {
	words := 0
	for from := uint8(0); from < BlockOrder; from++ {
		for to := uint8(0); to < BlockOrder; to++ {
			w := hamiltonian[from][to]
			var want Steps
			if path, ok := Canon.FindPath(Query{From: from, To: to, Target: BlockOrder, NoCache: true}); ok {
				want = Canon.steps(path)
			}
			if w != want {
				t.Fatalf("%d -> %d: table word %#x, search word %#x", from, to, uint64(w), uint64(want))
			}
			if (w != 0) != (Canon.Parity(from) != Canon.Parity(to)) {
				t.Fatalf("%d -> %d (parities %d, %d): table word %#x", from, to, Canon.Parity(from), Canon.Parity(to), uint64(w))
			}
			if w == 0 {
				continue
			}
			words++
			var seg [BlockOrder]perm.Code
			if got := w.Replay(Canon.Code(from), canonFree, &seg); got != BlockOrder {
				t.Fatalf("%d -> %d: word replays %d vertices", from, to, got)
			}
			var seen uint32
			for _, v := range seg {
				seen |= 1 << Canon.Index(v)
			}
			if seen != 1<<BlockOrder-1 || Canon.Index(seg[0]) != from || Canon.Index(seg[BlockOrder-1]) != to {
				t.Fatalf("%d -> %d: replay runs %d -> %d and visits mask %#x",
					from, to, Canon.Index(seg[0]), Canon.Index(seg[BlockOrder-1]), seen)
			}
		}
	}
	if words != 288 {
		t.Fatalf("table holds %d words, want the 288 opposite-parity pairs", words)
	}
}
