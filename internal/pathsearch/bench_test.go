package pathsearch

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/substar"
)

// BenchmarkHamiltonianPathCold measures the raw exhaustive search by
// bypassing the cache (fresh S4 each iteration would be unfair; instead
// vary endpoints across a precomputed uncacheable edge set).
func BenchmarkHamiltonianPathWarm(b *testing.B) {
	// Warm the cache once.
	Canon.FindPath(Query{From: 0, To: 1, Target: BlockOrder})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Canon.FindPath(Query{From: 0, To: 1, Target: BlockOrder}); !ok {
			b.Fatal("path vanished")
		}
	}
}

func BenchmarkLemma4SearchAllPairs(b *testing.B) {
	// One full Lemma 4 sweep per iteration: every fault, every adjacent
	// healthy pair, served from the shared cache after the first pass.
	for i := 0; i < b.N; i++ {
		for f := 0; f < BlockOrder; f++ {
			forb := uint32(1) << uint(f)
			for u := 0; u < BlockOrder; u++ {
				if u == f {
					continue
				}
				for a := Canon.Adjacency(uint8(u)) &^ forb; a != 0; a &= a - 1 {
					v := trailingZeros(a)
					if _, ok := Canon.FindPath(Query{From: uint8(u), To: v, ForbidV: forb, Target: 22}); !ok {
						b.Fatal("Lemma 4 failed")
					}
				}
			}
		}
	}
}

func trailingZeros(x uint32) uint8 {
	var i uint8
	for x&1 == 0 {
		x >>= 1
		i++
	}
	return i
}

func BenchmarkBlockMapping(b *testing.B) {
	p := substar.MustParse("****56789")
	blk, err := NewBlock(p)
	if err != nil {
		b.Fatal(err)
	}
	verts := p.Vertices(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, _ := blk.ToCanon(verts[i%len(verts)])
		_ = blk.FromCanon(idx)
	}
}

func BenchmarkLongestCycleOneFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, n := Canon.LongestCycleAvoiding(1<<uint(i%BlockOrder), nil)
		if n != 22 {
			b.Fatal("wrong cycle length")
		}
	}
}

// blockReplaySpec is a healthy S_9 block's Hamiltonian entry-to-exit
// query, the one every junction test of a fault-free block asks.
func blockReplaySpec(b *testing.B) (*Block, PathSpec) {
	p := substar.MustParse("****56789")
	blk, err := NewBlock(p)
	if err != nil {
		b.Fatal(err)
	}
	verts := p.Vertices(nil)
	from := verts[0]
	for _, to := range verts {
		spec := PathSpec{From: from, To: to, Target: BlockOrder}
		if _, ok := blk.Route(spec); ok {
			return blk, spec
		}
	}
	b.Fatal("no Hamiltonian path from the block's first vertex")
	return nil, PathSpec{}
}

// BenchmarkBlockReplay measures one block path read through
// PathAppend: the canonical query, the table read that a fault-free
// 24-vertex query takes, and the 24 vertices replayed from the word.
func BenchmarkBlockReplay(b *testing.B) {
	blk, spec := blockReplaySpec(b)
	buf := make([]perm.Code, 0, BlockOrder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := blk.PathAppend(buf[:0], spec); !ok {
			b.Fatal("path vanished")
		}
	}
}

// replaySink keeps BenchmarkStepsReplay's vertices live.
var replaySink perm.Code

// BenchmarkStepsReplay measures what a routed ring pays per block
// read: the same 24-vertex path replayed from its step word, with no
// query or memo.
func BenchmarkStepsReplay(b *testing.B) {
	blk, spec := blockReplaySpec(b)
	steps, _ := blk.Route(spec)
	var seg [BlockOrder]perm.Code
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if steps.Replay(spec.From, blk.freePos, &seg) != BlockOrder {
			b.Fatal("path shrank")
		}
	}
	replaySink = seg[BlockOrder-1]
}

// routeSink keeps BenchmarkBlockRoute's words live.
var routeSink Steps

// BenchmarkBlockRoute measures the junction search's feasibility test
// of the same fault-free, 24-vertex query both ways. The memo leg is
// the test with the table taken out: the block's isomorphism, the
// canonical query and the memo hit, no replay. The table leg is what
// the router pays: two relative ranks and one table read.
func BenchmarkBlockRoute(b *testing.B) {
	blk, spec := blockReplaySpec(b)
	b.Run("memo", func(b *testing.B) {
		q, _ := blk.query(spec, nil)
		Canon.find(q) // the memo holds the query from here on
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := BlockAt(spec.From, blk.freePos)
			var edges [len(edgeSig{})]Edge
			q, _ := blk.query(spec, edges[:0])
			if routeSink = Canon.find(q).steps; routeSink == 0 {
				b.Fatal("path vanished")
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if routeSink = Hamiltonian(spec.From, spec.To, blk.freePos); routeSink == 0 {
				b.Fatal("path vanished")
			}
		}
	})
}
