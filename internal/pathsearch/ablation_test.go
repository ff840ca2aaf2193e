package pathsearch

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/substar"
)

// Ablation benchmarks for the two design choices DESIGN.md calls out in
// the block engine: the committed table of Lemma 4's one-fault detours
// and the Warnsdorff branch ordering of the search that generated it.
// Run with
//
//	go test -bench=Ablation ./internal/pathsearch
//
// Expected shape: the table turns each query into one read (orders of
// magnitude below a search), and the heuristic cuts the search by
// keeping the branching factor near one.

// lemma4Ask answers one Lemma 4 query: is there a 22-vertex path from
// canonical vertex u to canonical vertex v around the faulty vertex f?
type lemma4Ask func(f, u, v uint8) bool

// tableAsk answers through Block.Route on the whole S4, which reads the
// detour table; searchAsk through the search, with or without the
// heuristic.
func tableAsk(tb testing.TB) lemma4Ask {
	whole, err := NewBlock(substar.Whole(4))
	if err != nil {
		tb.Fatal(err)
	}
	var avoid [1]perm.Code
	return func(f, u, v uint8) bool {
		avoid[0] = Canon.Code(f)
		_, ok := whole.Route(PathSpec{From: Canon.Code(u), To: Canon.Code(v), AvoidV: avoid[:], Target: 22})
		return ok
	}
}

func searchAsk(noHeuristic bool) lemma4Ask {
	return func(f, u, v uint8) bool {
		_, ok := Canon.FindPath(Query{From: u, To: v, ForbidV: 1 << f, Target: 22, NoHeuristic: noHeuristic})
		return ok
	}
}

func lemma4Sweep(b *testing.B, ask lemma4Ask) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for f := uint8(0); f < BlockOrder; f++ {
			for u := uint8(0); u < BlockOrder; u += 3 { // subsample: identical work per variant
				if u == f {
					continue
				}
				for a := Canon.Adjacency(u) &^ (1 << f); a != 0; a &= a - 1 {
					if !ask(f, u, trailingZeros(a)) {
						b.Fatal("path missing")
					}
				}
			}
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B)    { lemma4Sweep(b, tableAsk(b)) }
func BenchmarkAblationSearch(b *testing.B)      { lemma4Sweep(b, searchAsk(false)) }
func BenchmarkAblationNoHeuristic(b *testing.B) { lemma4Sweep(b, searchAsk(true)) }

// TestAblationVariantsAgree pins correctness: the table, the search and
// the search without the heuristic find paths for exactly the same
// queries.
func TestAblationVariantsAgree(t *testing.T) {
	table := tableAsk(t)
	search, plain := searchAsk(false), searchAsk(true)
	for f := uint8(0); f < BlockOrder; f++ {
		for u := uint8(0); u < BlockOrder; u += 5 {
			for v := uint8(0); v < BlockOrder; v += 3 {
				if u == f || v == f || u == v {
					continue
				}
				ok1, ok2, ok3 := table(f, u, v), search(f, u, v), plain(f, u, v)
				if ok1 != ok2 || ok2 != ok3 {
					t.Fatalf("variants disagree at f=%d u=%d v=%d: %v %v %v", f, u, v, ok1, ok2, ok3)
				}
			}
		}
	}
}
