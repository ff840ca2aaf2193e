package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/star"
)

// pageBytes returns the bytes of the bitset pages that cover [0, size):
// full pages of check.PageBits bits and a last one clamped to the
// words it needs.
func pageBytes(size int) uint64 {
	var words int
	for lo := 0; lo < size; lo += check.PageBits {
		words += (min(size-lo, check.PageBits) + 63) / 64
	}
	return uint64(8 * words)
}

// TestRingAllocsArePages holds check.Ring on a whole ring to the pages
// of its bitset plus a constant: the verifier keeps no per-vertex
// state. A whole S_8 ring touches every page (5,040 bytes). A
// fault-free S_6 ring lifted into S_16, with positions 7..16 fixed,
// touches at most one page per block (30), and the page directory
// grows by an entry per page, allowed 256 bytes each.
func TestRingAllocsArePages(t *testing.T) {
	const constant = 1 << 10
	ring8 := fullRing(t, 8)
	ring6 := fullRing(t, 6)
	var high perm.Code
	for i := 6; i < 16; i++ {
		high |= perm.Code(i) << (4 * i)
	}
	lifted := make([]perm.Code, len(ring6))
	for i, v := range ring6 {
		lifted[i] = v | high
	}
	for _, c := range []struct {
		n     int
		ring  []perm.Code
		bound uint64
	}{
		{8, ring8, pageBytes(perm.Factorial(8)) + constant},
		{16, lifted, 30*uint64(check.PageBits/8+256) + constant},
	} {
		g := star.New(c.n)
		var err error
		got := check.AllocBytes(func() { err = check.Ring(g, c.ring, nil, len(c.ring)) })
		if err != nil {
			t.Fatalf("S_%d: %v", c.n, err)
		}
		t.Logf("S_%d ring of %d vertices: %d bytes", c.n, len(c.ring), got)
		if got > c.bound {
			t.Errorf("S_%d: check.Ring allocated %d bytes, want <= %d", c.n, got, c.bound)
		}
	}
}

// fullRing embeds a fault-free ring of S_n.
func fullRing(t *testing.T, n int) []perm.Code {
	t.Helper()
	plan, err := core.Embed(n, nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Ring()
}
