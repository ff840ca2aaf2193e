package perm

import "testing"

// FuzzParse feeds arbitrary strings to the permutation parser; accepted
// inputs must roundtrip exactly and satisfy every invariant. ParseCode
// must accept s at n = p.N() exactly when Parse does, reject it at
// every other dimension, and roundtrip through AppendN.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"1", "21", "4231", "123456789abcdefg", "", "11", "xy"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			for n := 0; n <= MaxN+1; n++ {
				if _, cerr := ParseCode(s, n); cerr == nil {
					t.Fatalf("ParseCode(%q, %d) accepted what Parse rejects", s, n)
				}
			}
			return
		}
		for n := 0; n <= MaxN+1; n++ {
			c, cerr := ParseCode(s, n)
			if n != p.N() {
				if cerr == nil {
					t.Fatalf("ParseCode(%q, %d) accepted a dimension-%d string", s, n, p.N())
				}
				continue
			}
			if cerr != nil {
				t.Fatalf("ParseCode(%q, %d): %v", s, n, cerr)
			}
			if c != Pack(p) || string(c.AppendN(nil, n)) != s {
				t.Fatalf("ParseCode(%q, %d) = %#x, renders %q", s, n, uint64(c), c.AppendN(nil, n))
			}
		}
		if !p.Valid() {
			t.Fatalf("Parse(%q) produced invalid permutation %v", s, p)
		}
		if p.String() != s {
			t.Fatalf("roundtrip %q -> %q", s, p.String())
		}
		if got := Unrank(p.N(), p.Rank()); !got.Equal(p) {
			t.Fatalf("rank roundtrip failed for %q", s)
		}
		c := Pack(p)
		if !c.Valid(p.N()) || !c.Unpack(p.N()).Equal(p) {
			t.Fatalf("code roundtrip failed for %q", s)
		}
	})
}

// FuzzCodeOps drives the packed-code operations with arbitrary words;
// only valid permutation codes may pass Valid, and operations on valid
// codes must preserve validity. DimOf of any two words must match the
// brute-force search over dimensions.
func FuzzCodeOps(f *testing.F) {
	f.Add(uint64(0), uint8(4), uint8(2), uint64(0))
	f.Add(uint64(0x3210), uint8(4), uint8(3), uint64(0x0213))
	f.Add(uint64(0x3210), uint8(4), uint8(3), uint64(0x13210))
	f.Fuzz(func(t *testing.T, raw uint64, nRaw, dimRaw uint8, raw2 uint64) {
		n := int(nRaw)%MaxN + 1
		c := Code(raw)
		if got, want := DimOf(c, Code(raw2), n), bruteDimOf(c, Code(raw2), n); got != want {
			t.Fatalf("DimOf(%#x, %#x, %d) = %d, brute force %d", raw, raw2, n, got, want)
		}
		if !c.Valid(n) {
			return
		}
		p := c.Unpack(n)
		if !p.Valid() {
			t.Fatalf("Valid code %x unpacked to invalid %v", raw, p)
		}
		if got, want := string(c.AppendN(nil, n)), p.String(); got != want {
			t.Fatalf("AppendN(%#x, %d) = %q, Unpack.String %q", raw, n, got, want)
		}
		if n >= 2 {
			dim := int(dimRaw)%(n-1) + 2
			d := c.SwapFirst(dim)
			if !d.Valid(n) {
				t.Fatalf("SwapFirst broke validity: %x dim %d", raw, dim)
			}
			if d.SwapFirst(dim) != c {
				t.Fatalf("SwapFirst not an involution: %x dim %d", raw, dim)
			}
			if got := DimOf(c, d, n); got != dim {
				t.Fatalf("DimOf = %d, want %d", got, dim)
			}
			if c.Parity(n) == d.Parity(n) {
				t.Fatalf("edge does not cross the bipartition")
			}
		}
	})
}
