package perm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for n := 1; n <= MaxN; n++ {
		p := Identity(n)
		if !p.Valid() {
			t.Fatalf("Identity(%d) invalid", n)
		}
		for i, s := range p {
			if int(s) != i+1 {
				t.Fatalf("Identity(%d)[%d] = %d", n, i, s)
			}
		}
		if p.Parity() != 0 {
			t.Fatalf("Identity(%d) has odd parity", n)
		}
	}
}

func TestIdentityPanics(t *testing.T) {
	for _, n := range []int{0, -1, MaxN + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Identity(%d) did not panic", n)
				}
			}()
			Identity(n)
		}()
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		in []uint8
		ok bool
	}{
		{[]uint8{1}, true},
		{[]uint8{2, 1, 3}, true},
		{[]uint8{1, 1, 2}, false}, // duplicate
		{[]uint8{0, 1, 2}, false}, // symbol 0
		{[]uint8{1, 2, 4}, false}, // out of range
		{[]uint8{}, false},        // empty
	}
	for _, c := range cases {
		_, err := New(c.in)
		if (err == nil) != c.ok {
			t.Errorf("New(%v): err=%v, want ok=%v", c.in, err, c.ok)
		}
	}
}

func TestParseStringRoundtrip(t *testing.T) {
	for _, s := range []string{"1", "21", "4231", "123456789", "123456789abcdefg"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
	for _, s := range []string{"", "12x", "11", "13", "0"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestSwapFirst(t *testing.T) {
	p := MustParse("1234")
	q := p.SwapFirst(3)
	if want := "3214"; q.String() != want {
		t.Fatalf("SwapFirst(3) = %s, want %s", q, want)
	}
	// Involution.
	if !q.SwapFirst(3).Equal(p) {
		t.Fatal("SwapFirst not an involution")
	}
	// Original untouched.
	if p.String() != "1234" {
		t.Fatal("SwapFirst mutated receiver")
	}
	// In-place variant.
	r := p.Clone()
	r.SwapFirstInPlace(2)
	if want := "2134"; r.String() != want {
		t.Fatalf("SwapFirstInPlace(2) = %s, want %s", r, want)
	}
}

func TestSwapFirstPanics(t *testing.T) {
	p := MustParse("123")
	for _, i := range []int{0, 1, 4} {
		want := fmt.Sprintf("perm: SwapFirst dimension %d out of range [2,3]", i)
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("SwapFirst(%d) panicked with %v, want %q", i, got, want)
				}
			}()
			p.SwapFirst(i)
		}()
	}
}

func TestComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 8; n++ {
		id := Identity(n)
		for trial := 0; trial < 50; trial++ {
			p := Unrank(n, rng.Intn(Factorial(n)))
			q := Unrank(n, rng.Intn(Factorial(n)))
			// Inverse laws.
			if !p.Inverse().Compose(p).Equal(id) || !p.Compose(p.Inverse()).Equal(id) {
				t.Fatalf("n=%d: inverse law fails for %s", n, p)
			}
			// Associativity spot check with a third element.
			r := Unrank(n, rng.Intn(Factorial(n)))
			if !p.Compose(q).Compose(r).Equal(p.Compose(q.Compose(r))) {
				t.Fatalf("n=%d: associativity fails", n)
			}
			// Parity is a homomorphism.
			if p.Compose(q).Parity() != (p.Parity()+q.Parity())%2 {
				t.Fatalf("n=%d: parity not multiplicative for %s, %s", n, p, q)
			}
		}
	}
}

func TestParityMatchesInversionCount(t *testing.T) {
	// Cross-validate the cycle-based parity against a direct inversion
	// count, exhaustively for n <= 6.
	inversions := func(p Perm) int {
		k := 0
		for i := 0; i < len(p); i++ {
			for j := i + 1; j < len(p); j++ {
				if p[i] > p[j] {
					k++
				}
			}
		}
		return k
	}
	for n := 1; n <= 6; n++ {
		for r := 0; r < Factorial(n); r++ {
			p := Unrank(n, r)
			if p.Parity() != inversions(p)%2 {
				t.Fatalf("parity mismatch at %s", p)
			}
		}
	}
}

// divUnrankCode is the division-based decoder UnrankCode replaced,
// kept as its oracle: the factorial-base digits most significant
// first, each by a 64-bit division, each picking from a nibble list of
// the unused symbols.
func divUnrankCode(n, rank int) Code {
	unused := uint64(0xFEDCBA9876543210)
	var c Code
	for i := 0; i < n; i++ {
		f := Factorial(n - 1 - i)
		d := uint(rank / f)
		rank %= f
		shift := 4 * d
		c |= Code(unused>>shift&0xF) << (4 * uint(i))
		low := unused & (1<<shift - 1)
		unused = low | unused>>(shift+4)<<shift
	}
	return c
}

func TestRankUnrankBijection(t *testing.T) {
	// UnrankCode against the division-based decoder: every rank up to
	// n = 9; beyond, the ends of the rank range, both sides of every
	// multiple of 6! up to 200*6! (where the table tail wraps and the
	// head digits carry), and seeded random ranks.
	check := func(n, r int) {
		t.Helper()
		if got, want := UnrankCode(n, r), divUnrankCode(n, r); got != want {
			t.Fatalf("UnrankCode(%d, %d) = %#x, division decoder %#x", n, r, uint64(got), uint64(want))
		}
	}
	for n := 1; n <= 9; n++ {
		for r := 0; r < Factorial(n); r++ {
			check(n, r)
		}
	}
	rng := rand.New(rand.NewSource(16))
	for n := 10; n <= MaxN; n++ {
		check(n, 0)
		check(n, Factorial(n)-1)
		for r := 1; r <= 200; r++ {
			check(n, r*720)
			check(n, r*720-1)
		}
		for i := 0; i < 2000; i++ {
			check(n, rng.Intn(Factorial(n)))
		}
	}

	for n := 1; n <= 7; n++ {
		seen := make(map[string]bool)
		prev := ""
		for r := 0; r < Factorial(n); r++ {
			p := Unrank(n, r)
			if !p.Valid() {
				t.Fatalf("Unrank(%d, %d) invalid: %v", n, r, p)
			}
			if c := UnrankCode(n, r); c != Pack(p) {
				t.Fatalf("UnrankCode(%d, %d) = %s, Unrank = %s", n, r, c.StringN(n), p)
			}
			if p.Rank() != r {
				t.Fatalf("Rank(Unrank(%d, %d)) = %d", n, r, p.Rank())
			}
			s := p.String()
			if seen[s] {
				t.Fatalf("Unrank(%d, %d) repeats %s", n, r, s)
			}
			seen[s] = true
			if s <= prev {
				t.Fatalf("Unrank not lexicographically increasing at rank %d (%s after %s)", r, s, prev)
			}
			prev = s
		}
	}
}

func TestUnrankPanics(t *testing.T) {
	for _, c := range []struct {
		n, r int
		want string
	}{
		{3, -1, "perm: rank -1 out of range [0,6)"},
		{3, 6, "perm: rank 6 out of range [0,6)"},
		{0, 0, "perm: dimension 0 out of range [1,16]"},
		{17, 0, "perm: dimension 17 out of range [1,16]"},
	} {
		for name, unrank := range map[string]func(){
			"Unrank":     func() { Unrank(c.n, c.r) },
			"UnrankCode": func() { UnrankCode(c.n, c.r) },
		} {
			func() {
				defer func() {
					if got := recover(); got != c.want {
						t.Errorf("%s(%d, %d) panicked with %v, want %q", name, c.n, c.r, got, c.want)
					}
				}()
				unrank()
			}()
		}
	}
}

func TestTranspositions(t *testing.T) {
	cases := []struct {
		p    string
		want int
	}{
		{"1234", 0},
		{"2134", 1},
		{"2143", 2},
		{"2341", 3},
		{"4321", 2},
	}
	for _, c := range cases {
		if got := MustParse(c.p).Transpositions(); got != c.want {
			t.Errorf("Transpositions(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestFactorial(t *testing.T) {
	want := []int{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, w)
		}
	}
	func() {
		defer func() {
			if got, want := recover(), "perm: Factorial(21) out of range"; got != want {
				t.Errorf("Factorial(21) panicked with %v, want %q", got, want)
			}
		}()
		Factorial(21)
	}()
}

func TestPositionOf(t *testing.T) {
	p := MustParse("3142")
	for i, s := range p {
		if got := p.PositionOf(s); got != i+1 {
			t.Errorf("PositionOf(%d) = %d, want %d", s, got, i+1)
		}
	}
	if p.PositionOf(9) != 0 {
		t.Error("PositionOf(absent) != 0")
	}
}

// randomPerm draws a uniformly random permutation for property tests.
func randomPerm(rng *rand.Rand, n int) Perm {
	return Unrank(n, rng.Intn(Factorial(n)))
}

func TestQuickRankRoundtrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		p := randomPerm(rng, n)
		return Unrank(n, p.Rank()).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseIsInvolution(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		rng := rand.New(rand.NewSource(seed))
		p := randomPerm(rng, n)
		return p.Inverse().Inverse().Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSwapFirstChangesParity(t *testing.T) {
	f := func(seed int64, nRaw, dimRaw uint8) bool {
		n := int(nRaw)%9 + 2 // >= 2 so a dimension exists
		dim := int(dimRaw)%(n-1) + 2
		rng := rand.New(rand.NewSource(seed))
		p := randomPerm(rng, n)
		return p.SwapFirst(dim).Parity() == 1-p.Parity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
