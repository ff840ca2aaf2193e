package perm

import (
	"fmt"
	"math/bits"
)

// Code is a permutation packed into a single machine word: position i
// (0-based) occupies bits [4i, 4i+4) and stores symbol-1. It supports
// the same operations as Perm without allocating, which matters on the
// embedder's hot paths where rings of millions of vertices are built.
//
// The zero Code is the (invalid as a permutation, but useful as a
// sentinel) all-symbol-1 word; use None for an explicit sentinel.
type Code uint64

// None is a sentinel Code that cannot equal any valid permutation code
// for n <= MaxN (it decodes to symbol 16 in every position).
const None Code = ^Code(0)

// Pack converts a Perm to its Code. The dimension is not stored; all
// Code operations take n explicitly.
func Pack(p Perm) Code {
	var c Code
	for i, s := range p {
		c |= Code(s-1) << (4 * uint(i))
	}
	return c
}

// Unpack converts a Code back to a Perm of dimension n.
func (c Code) Unpack(n int) Perm {
	p := make(Perm, n)
	for i := 0; i < n; i++ {
		p[i] = uint8(c>>(4*uint(i))&0xF) + 1
	}
	return p
}

// Symbol returns the symbol (1..n) in 1-based position i.
func (c Code) Symbol(i int) uint8 {
	return uint8(c>>(4*uint(i-1))&0xF) + 1
}

// WithSymbol returns a copy of c with 1-based position i set to symbol s.
func (c Code) WithSymbol(i int, s uint8) Code {
	shift := 4 * uint(i-1)
	return c&^(Code(0xF)<<shift) | Code(s-1)<<shift
}

// SwapFirst returns the neighbor of c along dimension i (2 <= i <= n):
// the code with positions 1 and i exchanged.
func (c Code) SwapFirst(i int) Code {
	shift := 4 * uint(i-1)
	a := c & 0xF
	b := (c >> shift) & 0xF
	return c ^ (a ^ b) ^ ((a ^ b) << shift)
}

// Valid reports whether c encodes a permutation of 1..n.
func (c Code) Valid(n int) bool {
	_, ok := c.RankValid(n)
	return ok
}

// Parity returns 0 for even and 1 for odd permutation codes, matching
// Perm.Parity.
func (c Code) Parity(n int) int {
	var visited uint32
	cycles := 0
	for i := 0; i < n; i++ {
		if visited&(1<<uint(i)) != 0 {
			continue
		}
		cycles++
		for j := i; visited&(1<<uint(j)) == 0; j = int(c >> (4 * uint(j)) & 0xF) {
			visited |= 1 << uint(j)
		}
	}
	return (n - cycles) & 1
}

// PositionOf returns the 1-based position of symbol s in c, or 0 if the
// symbol does not occur among the first n positions.
func (c Code) PositionOf(n int, s uint8) int {
	want := Code(s - 1)
	for i := 0; i < n; i++ {
		if c>>(4*uint(i))&0xF == want {
			return i + 1
		}
	}
	return 0
}

// StringN renders the code as a dimension-n permutation string.
func (c Code) StringN(n int) string {
	var buf [MaxN]byte
	return string(c.AppendN(buf[:0], n))
}

// AppendN appends the dimension-n permutation string of c to dst, one
// character per position spelled as Perm.String spells it (1..9, then
// a..g), and returns the extended slice. It allocates only when dst
// lacks room for n more bytes, so the ring emitters write every vertex
// through one reused buffer.
func (c Code) AppendN(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, symbolRunes[c>>(4*uint(i))&0xF])
	}
	return dst
}

// ParseCode reads one vertex of S_n in permutation notation, the
// inverse of AppendN. It returns Parse's error for a string that is no
// permutation, and for a permutation of another dimension an error
// naming the string and both dimensions, which callers prefix with
// their own context.
func ParseCode(s string, n int) (Code, error) {
	p, err := Parse(s)
	if err != nil {
		return 0, err
	}
	if p.N() != n {
		return 0, fmt.Errorf("%q has dimension %d, want %d", s, p.N(), n)
	}
	return Pack(p), nil
}

// IdentityCode returns Pack(Identity(n)).
func IdentityCode(n int) Code {
	var c Code
	for i := 0; i < n; i++ {
		c |= Code(i) << (4 * uint(i))
	}
	return c
}

// Rank returns the lexicographic rank of c among permutations of
// 1..n, equivalent to c.Unpack(n).Rank() without allocating. It is one
// pass over a used-symbol mask: the Lehmer digit at position i counts
// the later symbols smaller than symbol s, which are the s smaller
// symbols minus those already used at earlier positions.
func (c Code) Rank(n int) int {
	rank := 0
	var used uint32
	for i := 0; i < n; i++ {
		s := uint(c>>(4*uint(i))) & 0xF
		smaller := int(s) - bits.OnesCount32(used&(1<<s-1))
		used |= 1 << s
		rank = rank*(n-i) + smaller
	}
	return rank
}

// RankValid returns c.Rank(n) and c.Valid(n) from one pass over the
// nibbles: the used-symbol mask that Rank keeps for its Lehmer digits
// is also what detects a bad word. The pass shifts the word four bits
// per step and tests validity once at the end: n symbols set exactly
// the bits 0..n-1 of the mask only when they are distinct and all
// below n, so a repeated symbol or a symbol >= n leaves the mask short
// of 1<<n - 1, and a nonzero nibble above position n leaves the
// shifted word nonzero. The rank is 0 when ok is false. The ring
// writer calls it for every vertex it escapes to a rank and the
// verifier, through Valid, for every vertex it cannot reach by a star
// step, so hotalloc keeps it allocation-free.
//
//starlint:hotpath
func (c Code) RankValid(n int) (rank int, ok bool) {
	if n < 1 || n > MaxN {
		return 0, false
	}
	w := uint64(c)
	var used uint32
	for k := n; k > 0; k-- {
		s := w & 0xF
		w >>= 4
		bit := uint32(1) << s
		rank = rank*k + int(s) - bits.OnesCount32(used&(bit-1))
		used |= bit
	}
	if used != 1<<uint(n)-1 || w != 0 {
		return 0, false
	}
	return rank, true
}

// DimOf returns the dimension i (2 <= i <= n) such that b == a.SwapFirst(i),
// or 0 when a and b are not adjacent in S_n. Adjacent codes differ in
// exactly two nibbles, nibble 0 and nibble i-1, by the same nonzero
// xor t: with x = a^b, the rest of x past nibble 0 must be t shifted
// to the lowest differing nibble, and a's symbol there must be b's
// first symbol, which makes the pair a swap. A pair that differs only
// in nibble 0 finds no nibble, and its shift of 64 names a dimension
// past MaxN. There is no loop over the positions and no call, so the
// compiler inlines it into the verifier's per-vertex step.
//
//starlint:hotpath
func DimOf(a, b Code, n int) int {
	x := uint64(a ^ b)
	t := x & 0xF
	rest := x &^ 0xF
	shift := uint(bits.TrailingZeros64(rest)) &^ 3
	dim := int(shift>>2) + 1
	if t == 0 || rest != t<<shift || uint64(a)>>shift&0xF != uint64(b)&0xF || dim > n {
		return 0
	}
	return dim
}

// Adjacent reports whether a and b are neighbors in S_n.
func Adjacent(a, b Code, n int) bool { return DimOf(a, b, n) != 0 }

// Format implements fmt.Formatter-ish debugging support: %v prints the
// raw word, use StringN for permutation notation.
func (c Code) GoString() string { return fmt.Sprintf("perm.Code(%#x)", uint64(c)) }
