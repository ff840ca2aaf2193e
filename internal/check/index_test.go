package check

import (
	"math/bits"
	"testing"

	"repro/internal/perm"
)

// admissibleDims returns every P of S_n as the dims mask
// newVertexIndex takes: each choice of min(n, 4)−1 dimensions in 2..n.
func admissibleDims(n int) []uint32 {
	var out []uint32
	for m := uint32(0); m < 1<<(n-1); m++ {
		if bits.OnesCount32(m) == min(n, 4)-1 {
			out = append(out, m<<2)
		}
	}
	return out
}

// TestVertexIndexExhaustive checks, for n = 3..7 and every admissible
// P, that the index is a bijection onto [0, n!) and that for every
// vertex v and every dimension d in P the table step lands on the
// from-scratch index of v.SwapFirst(d), while a dimension outside P
// reports that it cannot step.
func TestVertexIndexExhaustive(t *testing.T) {
	for n := 3; n <= 7; n++ {
		size := perm.Factorial(n)
		for _, dims := range admissibleDims(n) {
			x := newVertexIndex(n, dims)
			hit := make([]bool, size)
			for r := 0; r < size; r++ {
				v := perm.UnrankCode(n, r)
				a, l := x.locate(v)
				i := a*x.kf + l
				if i < 0 || i >= size || hit[i] {
					t.Fatalf("n=%d P=%#x: %s has index %d, out of range or taken", n, dims, v.StringN(n), i)
				}
				hit[i] = true
				for d := 2; d <= n; d++ {
					w := v.SwapFirst(d)
					wa, wl := x.locate(w)
					got, ok := x.step(l, d)
					if ok != (dims&(1<<d) != 0) {
						t.Fatalf("n=%d P=%#x: step along %d reports %v", n, dims, d, ok)
					}
					if ok && (wa != a || got != wl) {
						t.Fatalf("n=%d P=%#x: %s along %d: step L %d, from scratch (A %d, L %d), want A %d",
							n, dims, v.StringN(n), d, got, wa, wl, a)
					}
				}
			}
		}
	}
}

// TestVertexIndexPadding pins how P is taken from a dims mask: the
// lowest k−1 named dimensions, then the lowest unused positions.
func TestVertexIndexPadding(t *testing.T) {
	for _, c := range []struct {
		n    int
		dims uint32
		want []int // P's positions after position 1
	}{
		{9, 0, []int{2, 3, 4}},
		{9, 1 << 7, []int{2, 3, 7}},
		{9, 1<<9 | 1<<5, []int{2, 5, 9}},
		{9, 1<<9 | 1<<5 | 1<<8 | 1<<6, []int{5, 6, 8}},
		{3, 0, []int{2, 3}},
		{2, 0, []int{2}},
		{1, 0, nil},
	} {
		x := newVertexIndex(c.n, c.dims)
		var got []int
		for d := 2; d <= c.n; d++ {
			if j := x.slot[d]; j != 0 {
				got = append(got, d)
				if int(x.pos[j]) != 4*(d-1) {
					t.Errorf("n=%d dims=%#x: slot %d holds shift %d, want %d", c.n, c.dims, j, x.pos[j], 4*(d-1))
				}
			}
		}
		if len(got) != len(c.want) || x.k != min(c.n, 4) {
			t.Fatalf("n=%d dims=%#x: P %v (k=%d), want %v", c.n, c.dims, got, x.k, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("n=%d dims=%#x: P %v, want %v", c.n, c.dims, got, c.want)
			}
		}
	}
}

// FuzzVertexIndex checks the step against the recomputation for a
// random n in 5..16, a random P (the lowest three dimensions of a
// random mask, padded), a random vertex and a random dimension: a step
// along a dimension in P must land on the new vertex's from-scratch
// index, and every index must lie in [0, n!).
func FuzzVertexIndex(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint64(0), uint8(0))
	f.Add(uint8(4), uint16(0x1234), uint64(123456), uint8(5))
	f.Add(uint8(11), uint16(0xa001), uint64(1)<<44, uint8(14))
	f.Fuzz(func(t *testing.T, nSel uint8, pSel uint16, rank uint64, dSel uint8) {
		n := 5 + int(nSel%12)
		size := perm.Factorial(n)
		x := newVertexIndex(n, uint32(pSel)<<2&(1<<(n+1)-1))
		v := perm.UnrankCode(n, int(rank%uint64(size)))
		d := 2 + int(dSel)%(n-1)
		w := v.SwapFirst(d)
		a, l := x.locate(v)
		wa, wl := x.locate(w)
		for _, i := range []int{a*x.kf + l, wa*x.kf + wl} {
			if i < 0 || i >= size {
				t.Fatalf("n=%d: index %d outside [0, %d)", n, i, size)
			}
		}
		if got, ok := x.step(l, d); ok != (x.slot[d] != 0) || ok && (wa != a || got != wl) {
			t.Fatalf("n=%d %s along %d: step (%d, %v), from scratch A %d→%d, L %d→%d",
				n, v.StringN(n), d, got, ok, a, wa, l, wl)
		}
	})
}
