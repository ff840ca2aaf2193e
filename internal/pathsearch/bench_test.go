package pathsearch

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/substar"
)

// BenchmarkHamiltonianSearch measures one exhaustive search for a
// fault-free block's 24-vertex path, the query the hamiltonian table
// answers with no search at run time.
func BenchmarkHamiltonianSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Canon.FindPath(Query{From: 0, To: 1, Target: BlockOrder}); !ok {
			b.Fatal("path vanished")
		}
	}
}

func BenchmarkLemma4SearchAllPairs(b *testing.B) {
	// One full Lemma 4 sweep per iteration: every fault, every adjacent
	// healthy pair, each query searched.
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
// query.
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
// on one S_9 block. The table leg is a fault-free block's 24-vertex
// test as the router pays it: two relative ranks and one read of the
// hamiltonian table. The detour leg is Lemma 4's 22-vertex test around
// one faulty vertex, through Block.Route: the block's isomorphism, the
// canonical query and one read of the detour table. The search leg is
// the same detour with the table taken out: the search that generated
// it, run on the call. The edge leg is the 24-vertex test of a block
// with one faulty edge, which no table answers: Block.Route searches
// it on every call.
func BenchmarkBlockRoute(b *testing.B) {
	blk, spec := blockReplaySpec(b)
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if routeSink = Hamiltonian(spec.From, spec.To, blk.freePos); routeSink == 0 {
				b.Fatal("path vanished")
			}
		}
	})
	steps, _ := blk.Route(spec)
	var seg [BlockOrder]perm.Code
	steps.Replay(spec.From, blk.freePos, &seg)
	detour := spec
	detour.AvoidV, detour.Target = seg[BlockOrder/2:BlockOrder/2+1], BlockOrder-2
	edge := spec
	edge.AvoidE = [][2]perm.Code{{seg[BlockOrder/2], seg[BlockOrder/2+1]}}
	route := func(spec PathSpec) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blk := BlockAt(spec.From, blk.freePos)
				var ok bool
				if routeSink, ok = blk.Route(spec); !ok {
					b.Fatal("path vanished")
				}
			}
		}
	}
	b.Run("detour", route(detour))
	b.Run("search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blk := BlockAt(detour.From, blk.freePos)
			q, _ := blk.query(detour, nil)
			path := Canon.find(q)
			if path == nil {
				b.Fatal("path vanished")
			}
			routeSink = Canon.steps(path)
		}
	})
	b.Run("edge", route(edge))
}
