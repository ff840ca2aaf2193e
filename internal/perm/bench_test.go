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

func BenchmarkDimOf(b *testing.B) {
	a := Pack(MustParse("351724698"))
	c := a.SwapFirst(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = DimOf(a, c, 9)
	}
}
