package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= MaxN; n++ {
		for trial := 0; trial < 50; trial++ {
			p := randomPerm(rng, min(n, 10)) // Factorial beyond 10 overflows rng.Intn usage ranges slowly; stay modest
			if p.N() != min(n, 10) {
				t.Fatal("bad test setup")
			}
			c := Pack(p)
			if !c.Valid(p.N()) {
				t.Fatalf("Pack(%s) invalid", p)
			}
			if !c.Unpack(p.N()).Equal(p) {
				t.Fatalf("roundtrip failed for %s", p)
			}
		}
	}
}

func TestCodeSymbolOps(t *testing.T) {
	c := Pack(MustParse("35142"))
	want := []uint8{3, 5, 1, 4, 2}
	for i, w := range want {
		if got := c.Symbol(i + 1); got != w {
			t.Errorf("Symbol(%d) = %d, want %d", i+1, got, w)
		}
	}
	c2 := c.WithSymbol(2, 9)
	if c2.Symbol(2) != 9 {
		t.Error("WithSymbol did not set")
	}
	if c2.Symbol(1) != 3 || c2.Symbol(3) != 1 {
		t.Error("WithSymbol disturbed neighbors")
	}
}

func TestCodeSwapFirstMatchesPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 2; n <= 10; n++ {
		for trial := 0; trial < 100; trial++ {
			p := randomPerm(rng, n)
			dim := rng.Intn(n-1) + 2
			if Pack(p).SwapFirst(dim) != Pack(p.SwapFirst(dim)) {
				t.Fatalf("SwapFirst mismatch at %s dim %d", p, dim)
			}
		}
	}
}

func TestCodeValid(t *testing.T) {
	if !Pack(MustParse("123")).Valid(3) {
		t.Error("valid code rejected")
	}
	if Pack(MustParse("123")).Valid(4) {
		t.Error("wrong dimension accepted")
	}
	if Code(0).Valid(2) {
		t.Error("duplicate-symbol code accepted")
	}
	if None.Valid(16) {
		t.Error("None accepted as a permutation")
	}
	// High bits must be clear.
	c := Pack(MustParse("123")) | Code(5)<<32
	if c.Valid(3) {
		t.Error("code with dirty high bits accepted")
	}

	// RankValid (behind Valid) against an independent oracle — Perm's
	// validity over the unpacked symbols plus clear high nibbles — and
	// against Rank: on every code of S_n up to n = 6 (each also probed
	// one dimension off), on near-misses, and on random words, which
	// are almost all invalid.
	refValid := func(c Code, n int) bool {
		if n < 1 || n > MaxN || n < MaxN && c>>(4*uint(n)) != 0 {
			return false
		}
		return c.Unpack(n).Valid()
	}
	checkRankValid := func(c Code, n int) {
		t.Helper()
		rank, ok := c.RankValid(n)
		if want := refValid(c, n); ok != want || c.Valid(n) != want {
			t.Fatalf("RankValid(%#x, %d) ok = %v, Valid = %v, want %v", uint64(c), n, ok, c.Valid(n), want)
		}
		if want := 0; ok {
			want = c.Rank(n)
			if rank != want {
				t.Fatalf("RankValid(%#x, %d) rank = %d, Rank = %d", uint64(c), n, rank, want)
			}
		} else if rank != want {
			t.Fatalf("RankValid(%#x, %d) = %d on an invalid code, want 0", uint64(c), n, rank)
		}
	}
	for n := 1; n <= 6; n++ {
		for r := 0; r < Factorial(n); r++ {
			c := UnrankCode(n, r)
			for _, m := range []int{n - 1, n, n + 1} {
				checkRankValid(c, m)
			}
			checkRankValid(c^1, n)
			checkRankValid(c|Code(1)<<(4*uint(n)), n)
		}
	}
	for _, c := range []Code{0, None, IdentityCode(MaxN), Pack(MustParse("123")) | Code(5)<<32} {
		for n := -1; n <= MaxN+1; n++ {
			checkRankValid(c, n)
		}
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(MaxN)
		checkRankValid(Code(rng.Uint64()), n)
		checkRankValid(Code(rng.Uint64())&(1<<(4*uint(n))-1), n)
		checkRankValid(UnrankCode(n, rng.Intn(Factorial(n))), n)
	}
	// RankValid tests validity once, after the whole word: every way a
	// single nibble can spoil a valid code must still be caught — a
	// symbol >= n at each position, a repeated symbol at each pair of
	// positions, and any nonzero nibble above position n.
	for n := 1; n <= MaxN; n++ {
		c := UnrankCode(n, rng.Intn(Factorial(n)))
		for i := 1; i <= n; i++ {
			for s := n + 1; s <= 16; s++ {
				checkRankValid(c.WithSymbol(i, uint8(s)), n)
			}
			for j := i + 1; j <= n; j++ {
				checkRankValid(c.WithSymbol(j, c.Symbol(i)), n)
			}
		}
		for i := n + 1; i <= MaxN; i++ {
			for s := 2; s <= 16; s++ {
				checkRankValid(c.WithSymbol(i, uint8(s)), n)
			}
		}
	}
}

func TestCodeParityMatchesPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 10; n++ {
		for trial := 0; trial < 100; trial++ {
			p := randomPerm(rng, n)
			if Pack(p).Parity(n) != p.Parity() {
				t.Fatalf("parity mismatch at %s", p)
			}
		}
	}
}

func TestCodeRankMatchesPerm(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for r := 0; r < Factorial(n); r++ {
			p := Unrank(n, r)
			if Pack(p).Rank(n) != r {
				t.Fatalf("Code.Rank mismatch at %s", p)
			}
			if c := UnrankCode(n, r); c != Pack(p) {
				t.Fatalf("UnrankCode(%d, %d) = %s, Unrank = %s", n, r, c.StringN(n), p)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 9; n <= MaxN; n++ {
		for i := 0; i < 2000; i++ {
			p := Identity(n)
			rng.Shuffle(n, func(a, b int) { p[a], p[b] = p[b], p[a] })
			if got, want := Pack(p).Rank(n), p.Rank(); got != want {
				t.Fatalf("Code.Rank(%s) = %d, Perm.Rank = %d", p, got, want)
			}
			if c := UnrankCode(n, p.Rank()); c != Pack(p) {
				t.Fatalf("UnrankCode(%d, %d) = %s, want %s", n, p.Rank(), c.StringN(n), p)
			}
		}
	}
}

// TestUnrankCodeAllocs pins UnrankCode allocation-free: the ring
// readers decode every vertex through it.
func TestUnrankCodeAllocs(t *testing.T) {
	var sink Code
	r := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		r = (r + 7919) % Factorial(9)
		sink ^= UnrankCode(9, r)
	}); allocs != 0 {
		t.Errorf("UnrankCode allocates %.1f times per call", allocs)
	}
	_ = sink
}

// TestAppendNAllocs pins AppendN allocation-free into a buffer with
// room for the vertex: /ring and starring -print encode every ring
// vertex through it. hotalloc cannot prove it, since it forbids append.
func TestAppendNAllocs(t *testing.T) {
	buf := make([]byte, 0, MaxN)
	c := IdentityCode(MaxN)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		c = c.SwapFirst(2 + i%(MaxN-1))
		buf = c.AppendN(buf[:0], MaxN)
	}); allocs != 0 {
		t.Errorf("AppendN allocates %.1f times per call", allocs)
	}
	if got, want := string(buf), c.StringN(MaxN); got != want {
		t.Errorf("AppendN = %q, StringN %q", got, want)
	}
}

func TestCodePositionOf(t *testing.T) {
	c := Pack(MustParse("4213"))
	for i := 1; i <= 4; i++ {
		s := c.Symbol(i)
		if got := c.PositionOf(4, s); got != i {
			t.Errorf("PositionOf(%d) = %d, want %d", s, got, i)
		}
	}
	if c.PositionOf(4, 9) != 0 {
		t.Error("PositionOf(absent) != 0")
	}
}

func TestDimOfExhaustiveS4(t *testing.T) {
	// Every pair of S4 codes: DimOf agrees with explicit SwapFirst
	// construction, and is 0 exactly for non-neighbors.
	var codes []Code
	for r := 0; r < 24; r++ {
		codes = append(codes, Pack(Unrank(4, r)))
	}
	for _, a := range codes {
		neighbors := map[Code]int{}
		for dim := 2; dim <= 4; dim++ {
			neighbors[a.SwapFirst(dim)] = dim
		}
		for _, b := range codes {
			want := neighbors[b] // 0 when absent
			if got := DimOf(a, b, 4); got != want {
				t.Fatalf("DimOf(%s, %s) = %d, want %d", a.StringN(4), b.StringN(4), got, want)
			}
			if Adjacent(a, b, 4) != (want != 0) {
				t.Fatalf("Adjacent(%s, %s) inconsistent", a.StringN(4), b.StringN(4))
			}
		}
	}
}

// bruteDimOf is DimOf's oracle: the dimension whose star operation
// takes a to b, found by trying them all.
func bruteDimOf(a, b Code, n int) int {
	if a == b {
		return 0
	}
	for i := 2; i <= n; i++ {
		if a.SwapFirst(i) == b {
			return i
		}
	}
	return 0
}

// TestDimOfMatchesBruteForce checks DimOf against bruteDimOf on every
// ordered pair of vertices up to n = 5, and at every n up to 16 on
// random words (valid or not) paired with each kind of near-miss:
// neighbors, two differing nibbles that skip nibble 0, nibble 0 plus
// one other that are not a swap, a swap with a difference above
// position n, and the word itself.
func TestDimOfMatchesBruteForce(t *testing.T) {
	check := func(a, b Code, n int) {
		t.Helper()
		if got, want := DimOf(a, b, n), bruteDimOf(a, b, n); got != want {
			t.Fatalf("DimOf(%#x, %#x, %d) = %d, brute force %d", uint64(a), uint64(b), n, got, want)
		}
	}
	for n := 1; n <= 5; n++ {
		for r := 0; r < Factorial(n); r++ {
			for q := 0; q < Factorial(n); q++ {
				check(UnrankCode(n, r), UnrankCode(n, q), n)
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	nib := func() Code { return Code(1 + rng.Intn(15)) }
	for n := 1; n <= MaxN; n++ {
		for trial := 0; trial < 2000; trial++ {
			a := UnrankCode(n, rng.Intn(Factorial(n)))
			if trial%2 == 1 {
				a = Code(rng.Uint64())
			}
			check(a, a, n)
			if n >= 2 {
				b := a.SwapFirst(2 + rng.Intn(n-1))
				check(a, b, n)
				if n < MaxN {
					check(a, b^nib()<<(4*uint(n+rng.Intn(MaxN-n))), n)
				}
			}
			i, j := 1+rng.Intn(MaxN-1), 1+rng.Intn(MaxN-1)
			check(a, a^nib()<<(4*uint(i))^nib()<<(4*uint(j)), n)
			check(a, a^nib()^nib()<<(4*uint(i)), n)
			check(a, Code(rng.Uint64()), n)
		}
	}
}

func TestIdentityCode(t *testing.T) {
	for n := 1; n <= MaxN; n++ {
		if IdentityCode(n) != Pack(Identity(n)) {
			t.Fatalf("IdentityCode(%d) mismatch", n)
		}
	}
}

func TestQuickCodeStringRoundtrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		rng := rand.New(rand.NewSource(seed))
		p := randomPerm(rng, n)
		c := Pack(p)
		q, err := Parse(c.StringN(n))
		return err == nil && Pack(q) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
