package perm

import (
	"math/rand"
	"testing"
)

func BenchmarkPack(b *testing.B) {
	p := MustParse("a123456789bcdefg"[:10])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Pack(p)
	}
}

func BenchmarkCodeSwapFirst(b *testing.B) {
	c := Pack(MustParse("3517246"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c = c.SwapFirst(2 + i%6)
	}
	_ = c
}

func BenchmarkCodeParity(b *testing.B) {
	c := Pack(MustParse("351724698"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Parity(9)
	}
}

func BenchmarkRank(b *testing.B) {
	p := MustParse("351724698")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Rank()
	}
}

func BenchmarkUnrank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ranks := make([]int, 1024)
	for i := range ranks {
		ranks[i] = rng.Intn(Factorial(9))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Unrank(9, ranks[i%len(ranks)])
	}
}

func BenchmarkUnrankCode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ranks := make([]int, 1024)
	for i := range ranks {
		ranks[i] = rng.Intn(Factorial(9))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = UnrankCode(9, ranks[i%len(ranks)])
	}
}

func BenchmarkRankValid(b *testing.B) {
	c := Pack(MustParse("351724698"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = c.RankValid(9)
	}
}

// dimSink keeps BenchmarkDimOf's results live, so the inlined DimOf
// cannot be folded away.
var dimSink int

// BenchmarkDimOf measures the verifier's adjacency test at n = 9 over
// a table of 1024 pairs that defeats constant folding: for random
// vertices, a neighbour along every dimension and four non-neighbours
// (two nibbles swapped off position 1, position 1 and another changed
// to a non-swap, a neighbour with a nibble changed above position 9,
// and the vertex itself), shuffled.
func BenchmarkDimOf(b *testing.B) {
	const n, size = 9, 1 << 10
	rng := rand.New(rand.NewSource(9))
	var pairs [][2]Code
	for len(pairs) < size {
		a := UnrankCode(n, rng.Intn(Factorial(n)))
		for d := 2; d <= n; d++ {
			pairs = append(pairs, [2]Code{a, a.SwapFirst(d)})
		}
		pairs = append(pairs,
			[2]Code{a, a.SwapFirst(3).SwapFirst(5).SwapFirst(3)},
			[2]Code{a, a ^ 1 ^ 2<<12},
			[2]Code{a, a.SwapFirst(4) ^ 1<<(4*n)},
			[2]Code{a, a})
	}
	pairs = pairs[:size]
	rng.Shuffle(size, func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		p := pairs[i&(size-1)]
		sum += DimOf(p[0], p[1], n)
	}
	dimSink = sum
}
