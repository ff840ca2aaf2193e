// Package perm implements the permutation kernel underlying the star
// graph S_n: permutations of the symbols 1..n as both a friendly slice
// type (Perm) and a packed 4-bit word type (Code) for hot paths.
//
// Conventions follow the paper "Embed Longest Rings onto Star Graphs
// with Vertex Faults" (Hsieh, Chen, Ho; ICPP 1998): a vertex of S_n is
// written a1 a2 ... an, a permutation of 1..n, and the i-th dimensional
// star operation swaps the leftmost symbol a1 with ai (2 <= i <= n).
package perm

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// MaxN is the largest supported dimension. A Code packs one symbol into
// four bits, so 16 positions fill a uint64 exactly.
const MaxN = 16

// Factorial-scale arithmetic throughout the module assumes a 64-bit
// int (13! already overflows 32 bits); refuse to compile on 32-bit
// platforms via a constant divide-by-zero.
const _ = 1 / (^uint(0) >> 63)

// mustFailf is the package's invariant helper: it panics with a
// formatted message. Exported entry points call it from the failing
// branch of programmer-error preconditions (dimension ranges, matched
// operand sizes) that are bugs at the call site, never data-dependent
// conditions; those return errors instead. Testing the condition at
// the call site keeps the message arguments from being boxed on the
// heap when the check passes, which on the per-vertex paths would be
// most of the allocation traffic.
func mustFailf(format string, args ...interface{}) {
	panic(fmt.Sprintf(format, args...))
}

// Perm is a permutation of the symbols 1..n, stored one symbol per
// element: p[i] is the symbol in position i+1 (positions are 1-based in
// the paper, 0-based in this slice).
type Perm []uint8

// ErrNotPermutation reports that a slice or string does not denote a
// permutation of 1..n.
var ErrNotPermutation = errors.New("perm: not a permutation of 1..n")

// Identity returns the identity permutation 1 2 ... n.
func Identity(n int) Perm {
	if n < 1 || n > MaxN {
		mustFailf("perm: dimension %d out of range [1,%d]", n, MaxN)
	}
	p := make(Perm, n)
	for i := range p {
		p[i] = uint8(i + 1)
	}
	return p
}

// New validates and copies the given symbols into a Perm. It returns
// ErrNotPermutation if the symbols are not a permutation of 1..n.
func New(symbols []uint8) (Perm, error) {
	p := make(Perm, len(symbols))
	copy(p, symbols)
	if !p.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrNotPermutation, symbols)
	}
	return p, nil
}

// MustNew is New, panicking on invalid input. For tests and literals.
func MustNew(symbols ...uint8) Perm {
	p, err := New(symbols)
	if err != nil {
		panic(err)
	}
	return p
}

// Valid reports whether p is a permutation of 1..len(p) with
// 1 <= len(p) <= MaxN.
func (p Perm) Valid() bool {
	n := len(p)
	if n < 1 || n > MaxN {
		return false
	}
	var seen uint32
	for _, s := range p {
		if s < 1 || int(s) > n {
			return false
		}
		bit := uint32(1) << (s - 1)
		if seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return true
}

// N returns the dimension of the permutation.
func (p Perm) N() int { return len(p) }

// Clone returns a fresh copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// symbolRunes maps symbol values 1..16 to their single-character
// spelling: 1..9 then a..g, matching the paper's digit strings for
// n <= 9 and extending them compactly beyond.
const symbolRunes = "123456789abcdefg"

// String renders p in the paper's notation, e.g. "2134" for n=4 and
// "123a56789" style strings (with letters) for n >= 10.
func (p Perm) String() string {
	var b strings.Builder
	b.Grow(len(p))
	for _, s := range p {
		if s < 1 || int(s) > MaxN {
			b.WriteByte('?')
			continue
		}
		b.WriteByte(symbolRunes[s-1])
	}
	return b.String()
}

// Parse reads a permutation written as one character per symbol
// (digits 1..9 then letters a..g), the inverse of String.
func Parse(s string) (Perm, error) {
	p := make(Perm, 0, len(s))
	for _, r := range s {
		idx := strings.IndexRune(symbolRunes, r)
		if idx < 0 {
			return nil, fmt.Errorf("%w: bad symbol %q in %q", ErrNotPermutation, r, s)
		}
		p = append(p, uint8(idx+1))
	}
	if !p.Valid() {
		return nil, fmt.Errorf("%w: %q", ErrNotPermutation, s)
	}
	return p, nil
}

// MustParse is Parse, panicking on invalid input.
func MustParse(s string) Perm {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// SwapFirst returns the neighbor of p along dimension i: the permutation
// obtained by exchanging the symbol in position 1 with the symbol in
// position i. Positions are 1-based as in the paper, so 2 <= i <= n.
func (p Perm) SwapFirst(i int) Perm {
	if i < 2 || i > len(p) {
		mustFailf("perm: SwapFirst dimension %d out of range [2,%d]", i, len(p))
	}
	q := p.Clone()
	q[0], q[i-1] = q[i-1], q[0]
	return q
}

// SwapFirstInPlace applies the dimension-i star operation to p itself.
func (p Perm) SwapFirstInPlace(i int) {
	if i < 2 || i > len(p) {
		mustFailf("perm: SwapFirst dimension %d out of range [2,%d]", i, len(p))
	}
	p[0], p[i-1] = p[i-1], p[0]
}

// PositionOf returns the 1-based position holding symbol s, or 0 if s
// does not occur in p.
func (p Perm) PositionOf(s uint8) int {
	for i, t := range p {
		if t == s {
			return i + 1
		}
	}
	return 0
}

// Compose returns the permutation r with r(i) = p(q(i)), where a
// permutation is read as the function position -> symbol. Both operands
// must have the same dimension.
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		mustFailf("perm: Compose dimension mismatch: %d vs %d", len(p), len(q))
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]-1]
	}
	return r
}

// Inverse returns p^-1 under Compose: Inverse(p).Compose(p) is the
// identity.
func (p Perm) Inverse() Perm {
	r := make(Perm, len(p))
	for i, s := range p {
		r[s-1] = uint8(i + 1)
	}
	return r
}

// Parity returns 0 for even permutations and 1 for odd ones. The two
// values index the two partite sets of the bipartite graph S_n, which
// have equal size n!/2 (Jwo, Lakshmivarahan, Dhall).
func (p Perm) Parity() int {
	// Count inversions via cycle decomposition: a permutation is even
	// iff n minus the number of cycles is even.
	var visited uint32
	cycles := 0
	for i := 0; i < len(p); i++ {
		if visited&(1<<uint(i)) != 0 {
			continue
		}
		cycles++
		for j := i; visited&(1<<uint(j)) == 0; j = int(p[j]) - 1 {
			visited |= 1 << uint(j)
		}
	}
	return (len(p) - cycles) & 1
}

// Transpositions returns the minimum number of arbitrary transpositions
// needed to sort p, i.e. n minus the number of cycles of p.
func (p Perm) Transpositions() int {
	var visited uint32
	cycles := 0
	for i := 0; i < len(p); i++ {
		if visited&(1<<uint(i)) != 0 {
			continue
		}
		cycles++
		for j := i; visited&(1<<uint(j)) == 0; j = int(p[j]) - 1 {
			visited |= 1 << uint(j)
		}
	}
	return len(p) - cycles
}

// factorials holds 0! through 20!, the largest factorial a 64-bit int
// holds.
var factorials = func() (t [21]int) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * i
	}
	return t
}()

// Factorial returns n! as an int. It panics if the product overflows a
// 64-bit int (n > 20), far beyond MaxN.
func Factorial(n int) int {
	if n < 0 || n >= len(factorials) {
		mustFailf("perm: Factorial(%d) out of range", n)
	}
	return factorials[n]
}

// Rank returns the lexicographic rank of p among all permutations of
// 1..n, in the range [0, n!). Rank(Identity(n)) == 0.
func (p Perm) Rank() int {
	n := len(p)
	rank := 0
	// Lehmer code with an O(n^2) scan; n <= 16 keeps this trivial.
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank = rank*(n-i) + smaller
	}
	return rank
}

// Unrank returns the permutation of 1..n with the given lexicographic
// rank. It is the inverse of Rank.
func Unrank(n, rank int) Perm {
	return UnrankCode(n, rank).Unpack(n)
}

// UnrankCode returns the code of the permutation of 1..n with the
// given lexicographic rank: Pack(Unrank(n, rank)) without allocating.
//
// The rank is a factorial-base number, rank = sum(d_i * (n-1-i)!) with
// digit d_i < n-i, and d_i picks the d_i-th smallest symbol not yet
// placed. The digits are peeled least significant first, so every
// divisor is small: the last six positions together are rank mod 6!,
// the index of their pattern among the six symbols left, which
// tailCodes spells out; each head position i < n-6 divides by n-i.
// Every division is a multiplication by a reciprocal (see recips). The
// head digits then take their symbols from a nibble list of the unused
// symbols, most significant first, and the tail maps its pattern onto
// the six symbols the list has left.
func UnrankCode(n, rank int) Code {
	if n < 1 || n > MaxN {
		mustFailf("perm: dimension %d out of range [1,%d]", n, MaxN)
	}
	if rank < 0 || rank >= factorials[n] {
		mustFailf("perm: rank %d out of range [0,%d)", rank, factorials[n])
	}
	if n <= tailN {
		// The S_6 codes of rank below n! keep their first 6-n positions
		// in place, so their last n nibbles, each less 6-n, are the code.
		s := 4 * uint(tailN-n) & 31
		return Code(tailCodes[rank]>>s) - Code(tailN-n)*(tailOnes>>s)
	}
	hi, _ := bits.Mul64(uint64(rank), tailRecip)
	tail := tailCodes[uint64(rank)-hi*tailOrder]
	// digits collects the head digits as nibbles, d_0 lowest: they are
	// peeled from d_{n-7} up and pushed in from the bottom.
	var digits uint64
	for k := tailN + 1; k < n; k++ {
		q, _ := bits.Mul64(hi, recips[k])
		digits = digits<<4 | (hi - q*uint64(k))
		hi = q
	}
	digits = digits<<4 | hi // d_0 < n
	// unused lists the remaining symbols-1 in increasing order, one per
	// nibble, lowest nibble first.
	unused := uint64(0xFEDCBA9876543210)
	var c Code
	for i := uint(0); i < uint(n-tailN); i++ {
		shift := uint(digits) << 2 & 60
		digits >>= 4
		c |= Code(unused>>shift&0xF) << (4 * i & 63)
		unused = unused&(1<<shift-1) | unused>>shift>>4<<shift
	}
	// The six symbols left are the list's lowest six nibbles.
	var t Code
	for j := uint(0); j < 4*tailN; j += 4 {
		t |= Code(unused>>(uint(tail>>j)<<2&60)&0xF) << j
	}
	return c | t<<(4*uint(n-tailN)&63)
}

// tailN is the number of trailing positions UnrankCode reads from
// tailCodes, and tailOrder their tailN! patterns.
const (
	tailN     = 6
	tailOrder = 720
)

// tailOnes has a 1 in each of the tailN lowest nibbles.
const tailOnes = 0x111111

// tailCodes[r] is the code of the rank-r permutation of 1..6, decoded
// once by the textbook method: digit d_i = r / (5-i)! picks the d_i-th
// smallest unused symbol.
var tailCodes = func() (t [tailOrder]uint32) {
	for r := range t {
		unused, rank := uint32(0x543210), r
		for i := 0; i < tailN; i++ {
			f := factorials[tailN-1-i]
			shift := 4 * uint(rank/f)
			rank %= f
			t[r] |= unused >> shift & 0xF << (4 * uint(i))
			unused = unused&(1<<shift-1) | unused>>(shift+4)<<shift
		}
	}
	return t
}()

// recips[k] = ceil(2^64 / k) for tailN < k <= MaxN, and tailRecip the
// same for 6!. The high word of bits.Mul64(r, recips[k]) is floor(r/k)
// whenever r < 2^64 / k: writing recips[k] = (2^64 + e)/k with
// 0 <= e < k, the product over 2^64 is r/k + r*e/(k*2^64), and the
// second term stays below 1/k, too little to carry past the next
// integer. Ranks are below 16! < 2^45 and k <= 720, so every quotient
// is exact.
var recips = func() (t [MaxN + 1]uint64) {
	for k := tailN + 1; k <= MaxN; k++ {
		t[k] = ^uint64(0)/uint64(k) + 1
	}
	return t
}()

const tailRecip = ^uint64(0)/tailOrder + 1
