package pathsearch

import (
	"math/bits"
	"testing"

	"repro/internal/perm"
)

// checkTableWord holds one word of a committed step-word table to the
// search it replaces: it equals the step word of the path the search
// finds for q; it is nonzero exactly when want says the query is
// feasible; and a nonzero word replays over positions 1..4 from q.From
// to q.To through q.Target distinct canonical vertices, none forbidden.
func checkTableWord(t *testing.T, w Steps, q Query, want bool) {
	t.Helper()
	var found Steps
	if path, ok := Canon.FindPath(q); ok {
		found = Canon.steps(path)
	}
	if w != found {
		t.Fatalf("%+v: table word %#x, search word %#x", q, uint64(w), uint64(found))
	}
	if (w != 0) != want {
		t.Fatalf("%+v (parities %d, %d): table word %#x", q, Canon.Parity(q.From), Canon.Parity(q.To), uint64(w))
	}
	if w == 0 {
		return
	}
	var seg [BlockOrder]perm.Code
	if got := w.Replay(Canon.Code(q.From), canonFree, &seg); got != q.Target {
		t.Fatalf("%+v: word replays %d vertices", q, got)
	}
	var seen uint32
	for _, v := range seg[:q.Target] {
		seen |= 1 << Canon.Index(v)
	}
	if last := Canon.Index(seg[q.Target-1]); Canon.Index(seg[0]) != q.From || last != q.To ||
		bits.OnesCount32(seen) != q.Target || seen&q.ForbidV != 0 {
		t.Fatalf("%+v: replay runs %d -> %d and visits mask %#x", q, Canon.Index(seg[0]), last, seen)
	}
}

// TestHamiltonianTable holds every word of the committed hamiltonian
// table to the search: for each ordered pair (from, to) of canonical
// vertices, exactly the 288 pairs of opposite parity hold a word, and
// each is the search's 24-vertex path.
func TestHamiltonianTable(t *testing.T) {
	words := 0
	for from := uint8(0); from < BlockOrder; from++ {
		for to := uint8(0); to < BlockOrder; to++ {
			w := hamiltonian[from][to]
			checkTableWord(t, w, Query{From: from, To: to, Target: BlockOrder}, Canon.Parity(from) != Canon.Parity(to))
			if w != 0 {
				words++
			}
		}
	}
	if words != 288 {
		t.Fatalf("table holds %d words, want the 288 opposite-parity pairs", words)
	}
}

// TestDetourTable holds every word of the committed detour table to
// the search: for each canonical fault and ordered pair (from, to), the
// word is the search's 22-vertex path around the fault, and every
// opposite-parity pair of healthy vertices holds one — Lemma 4 leaves
// none out — so exactly 24 × 12 × 11 × 2 = 6,336 of the 13,824 words
// are nonzero.
func TestDetourTable(t *testing.T) {
	words := 0
	for f := uint8(0); f < BlockOrder; f++ {
		for from := uint8(0); from < BlockOrder; from++ {
			for to := uint8(0); to < BlockOrder; to++ {
				w := detour[f][from][to]
				want := from != f && to != f && Canon.Parity(from) != Canon.Parity(to)
				checkTableWord(t, w, Query{From: from, To: to, ForbidV: 1 << f, Target: BlockOrder - 2}, want)
				if w != 0 {
					words++
				}
			}
		}
	}
	if words != 6336 {
		t.Fatalf("table holds %d words, want the 6,336 opposite-parity healthy pairs", words)
	}
}
