package check

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// sliceNext walks vs in the iterator shape the stream verifiers read.
func sliceNext(vs []perm.Code) func() (perm.Code, bool) {
	i := 0
	return func() (perm.Code, bool) {
		if i == len(vs) {
			return 0, false
		}
		i++
		return vs[i-1], true
	}
}

func TestRingStreamAcceptsValidCycle(t *testing.T) {
	g := star.New(3)
	count, err := RingStream(g, sliceNext(hexagon()), nil, 6)
	if err != nil {
		t.Fatalf("valid hexagon rejected: %v", err)
	}
	if count != 6 {
		t.Fatalf("count %d, want 6", count)
	}
}

// TestRingStreamMatchesRing feeds the same cycles (valid and broken)
// through both entry points — Ring over a slice and RingStream over an
// iterator — and demands the expected verdict and reason from each;
// the path rows do the same through Path and PathStream, from 123 to
// 132. The hexagon is 123 213 312 132 231 321.
func TestRingStreamMatchesRing(t *testing.T) {
	g := star.New(3)
	hex := hexagon()
	vertexFaults := func(vs ...perm.Code) func() *faults.Set {
		return func() *faults.Set {
			fs := faults.NewSet(3)
			for _, v := range vs {
				fs.AddVertex(v)
			}
			return fs
		}
	}
	edgeFault := func(u, v perm.Code) func() *faults.Set {
		return func() *faults.Set {
			fs := faults.NewSet(3)
			fs.AddEdge(u, v)
			return fs
		}
	}

	type row struct {
		name   string
		cycle  []perm.Code
		fs     func() *faults.Set
		min    int
		reason string // "" for a valid ring
	}
	rings := []row{
		{"valid", hex, nil, 6, ""},
		{"too short vs bound", hex, nil, 7, "length 6 < required 7"},
		{"under three vertices", hex[:2], nil, 0, "a cycle needs >= 3 vertices, got 2"},
		{"duplicate vertex", append(append([]perm.Code{}, hex...), hex[0]), nil, 0, "vertex 123 repeats at position 6"},
		{"non-adjacent hop", []perm.Code{hex[0], hex[2], hex[4]}, nil, 0, "123 and 312 (positions 0, 1) are not adjacent"},
		{"open wraparound", hex[:4], nil, 0, "132 and 123 (positions 3, 0) are not adjacent"},
		{"faulty vertex", hex, vertexFaults(hex[2]), 0, "faulty vertex 312 at position 2"},
		{"faulty vertex visited twice", []perm.Code{hex[0], hex[1], hex[2], hex[1]}, vertexFaults(hex[1]), 0,
			"faulty vertex 213 at position 1"},
		{"healthy repeat beside vertex faults", []perm.Code{hex[0], hex[1], hex[2], hex[1]}, vertexFaults(hex[4]), 0,
			"vertex 213 repeats at position 3"},
		{"faulty edge", hex, edgeFault(hex[1], hex[2]), 0, "faulty edge {213, 312} used at position 1"},
		{"faulty closing edge", hex, edgeFault(hex[5], hex[0]), 0, "faulty edge {321, 123} used at position 5"},
	}
	// Paths from hex[0] to hex[3].
	paths := []row{
		{"valid path", hex[:4], nil, 4, ""},
		{"path wrong start", hex[1:4], nil, 0, "path starts at 213, want 123"},
		{"path wrong end", hex[:3], nil, 0, "path ends at 312, want 132"},
		{"path too short", hex[:4], nil, 5, "length 4 < required 5"},
		{"empty path", nil, nil, 0, "empty path"},
		{"path faulty vertex", hex[:4], vertexFaults(hex[3]), 0, "faulty vertex 132 at position 3"},
	}
	for i, c := range append(rings, paths...) {
		var fs *faults.Set
		if c.fs != nil {
			fs = c.fs()
		}
		var slice, stream error
		if i < len(rings) {
			slice = Ring(g, c.cycle, fs, c.min)
			_, stream = RingStream(g, sliceNext(c.cycle), fs, c.min)
		} else {
			slice = Path(g, c.cycle, fs, hex[0], hex[3], c.min)
			_, stream = PathStream(g, sliceNext(c.cycle), fs, hex[0], hex[3], c.min)
		}
		for _, got := range []error{slice, stream} {
			if (got == nil) != (c.reason == "") {
				t.Errorf("%s: slice form %v, stream form %v, want reason %q", c.name, slice, stream, c.reason)
				continue
			}
			if got == nil {
				continue
			}
			if !errors.Is(got, ErrInvalidRing) {
				t.Errorf("%s: error not wrapping ErrInvalidRing: %v", c.name, got)
			}
			if !strings.Contains(got.Error(), c.reason) {
				t.Errorf("%s: error %q, want reason %q", c.name, got, c.reason)
			}
		}
	}
}

func TestRingStreamRejectsForeignVertex(t *testing.T) {
	g := star.New(3)
	bad := append([]perm.Code{}, hexagon()...)
	bad[3] = perm.None
	if _, err := RingStream(g, sliceNext(bad), nil, 0); err == nil {
		t.Fatal("foreign vertex accepted")
	}
}

// TestStreamVerifierStopsAtFirstError pins the incremental contract:
// the verdict lands on the offending Feed (so a producer can abort a
// multi-million-vertex stream early), the error is sticky, and Feed
// after Close is rejected.
func TestStreamVerifierStopsAtFirstError(t *testing.T) {
	g := star.New(3)
	hex := hexagon()

	sv := NewStreamVerifier(g, nil)
	if err := sv.Feed(hex[0]); err != nil {
		t.Fatal(err)
	}
	if err := sv.Feed(hex[2]); err == nil { // not adjacent to hex[0]
		t.Fatal("non-adjacent feed accepted")
	}
	if err := sv.Feed(hex[1]); err == nil {
		t.Fatal("error not sticky across Feed")
	}
	if err := sv.Close(0); err == nil {
		t.Fatal("error not sticky across Close")
	}

	sv = NewStreamVerifier(g, nil)
	for _, v := range hex {
		if err := sv.Feed(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Close(6); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(6); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if err := sv.Feed(hex[0]); err == nil {
		t.Fatal("Feed after Close accepted")
	}
	if sv.Count() != 6 {
		t.Fatalf("count %d", sv.Count())
	}
}

// twoBlocks returns two S4 blocks of S_5 in a row, each a Hamiltonian
// cycle of the substar spanned by positions 1..4 opened into a path,
// the second entered from the first's last vertex by a step along
// dimension 5: 48 vertices, 46 of them one step in P = {1, 2, 3, 4}
// from their predecessor.
func twoBlocks() []perm.Code {
	first := s4Cycle(perm.IdentityCode(5), 2, 3, 4)
	return append(first, s4Cycle(first[23].SwapFirst(5), 2, 3, 4)...)
}

// TestFeedRunTakesInPSteps pins where FeedRun's hot loop runs: nothing
// before the 25th vertex fixes the index, then every in-P step of the
// second block — its 23 vertices after the one the step along
// dimension 5 enters — and nothing while the fault set holds an edge.
func TestFeedRunTakesInPSteps(t *testing.T) {
	g := star.New(5)
	vs := twoBlocks()
	sv := NewStreamVerifier(g, nil)
	if got := sv.run(vs); got != 0 {
		t.Fatalf("run took %d vertices before the first was fed", got)
	}
	for i, v := range vs[:25] {
		if got := sv.run(vs[i:]); got != 0 {
			t.Fatalf("run took %d vertices at %d, before the index is fixed", got, i)
		}
		if err := sv.Feed(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := sv.run(vs[25:]); got != 23 {
		t.Fatalf("run took %d of the second block's 23 in-P steps", got)
	}
	if sv.Count() != 48 {
		t.Fatalf("count %d after the hot loop, want 48", sv.Count())
	}
	if err := sv.Close(48); err == nil || !strings.Contains(err.Error(), "are not adjacent") {
		t.Fatalf("two blocks do not close, got %v", err)
	}

	// A faulty edge off the two blocks: the hot loop stands aside for
	// any edge fault, on the ring or not.
	fs := faults.NewSet(5)
	for r := 0; fs.NumEdges() == 0; r++ {
		u := perm.UnrankCode(5, r)
		if w := u.SwapFirst(2); !slices.Contains(vs, u) && !slices.Contains(vs, w) {
			if err := fs.AddEdge(u, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	sv = NewStreamVerifier(g, fs)
	for _, v := range vs[:25] {
		if err := sv.Feed(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := sv.run(vs[25:]); got != 0 {
		t.Fatalf("run took %d vertices although the set holds an edge fault", got)
	}
}

// TestFeedRunMatchesFeed feeds the same vertices through FeedRun in
// runs of every size from 1 to 50 and through Feed one by one — valid,
// with a backtrack and with a faulty vertex, both of which the hot
// loop's bit test meets on an in-P step — and demands the same error,
// Count and stickiness: a rejected verifier re-returns its error from
// FeedRun and Close. Then FeedRun after Close.
func TestFeedRunMatchesFeed(t *testing.T) {
	g := star.New(5)
	valid := twoBlocks()
	faulty := faults.NewSet(5)
	if err := faulty.AddVertex(valid[44]); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		vs     []perm.Code
		fs     *faults.Set
		reason string
	}{
		{valid, nil, ""},
		{slices.Insert(slices.Clone(valid), 41, valid[39]), nil, "repeats at position 41"},
		{valid, faulty, "faulty vertex"},
	} {
		one := NewStreamVerifier(g, c.fs)
		var want error
		for _, v := range c.vs {
			if want = one.Feed(v); want != nil {
				break
			}
		}
		if (want == nil) != (c.reason == "") || want != nil && !strings.Contains(want.Error(), c.reason) {
			t.Fatalf("Feed: %v, want reason %q", want, c.reason)
		}
		for size := 1; size <= len(c.vs)+1; size++ {
			sv := NewStreamVerifier(g, c.fs)
			var err error
			for rest := c.vs; len(rest) > 0 && err == nil; rest = rest[min(size, len(rest)):] {
				err = sv.FeedRun(rest[:min(size, len(rest))])
			}
			if fmt.Sprint(err) != fmt.Sprint(want) || sv.Count() != one.Count() {
				t.Fatalf("runs of %d: error %v at count %d, Feed %v at %d", size, err, sv.Count(), want, one.Count())
			}
			if err == nil {
				continue
			}
			if again := sv.FeedRun(c.vs[:1]); again != err {
				t.Fatalf("runs of %d: error not sticky across FeedRun: %v", size, again)
			}
			if again := sv.Close(0); again != err {
				t.Fatalf("runs of %d: error not sticky across Close: %v", size, again)
			}
		}
	}

	sv := NewStreamVerifier(g, nil)
	if err := sv.FeedRun(valid); err != nil {
		t.Fatal(err)
	}
	closing := sv.Close(0) // two blocks do not close
	if err := sv.FeedRun(valid[:1]); closing == nil || err != closing || sv.Count() != 48 {
		t.Fatalf("FeedRun after a failed Close: %v, count %d; want the sticky %v", err, sv.Count(), closing)
	}
	sv = NewStreamVerifier(star.New(3), nil)
	if err := sv.FeedRun(hexagon()); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(6); err != nil {
		t.Fatal(err)
	}
	if err := sv.FeedRun(nil); err != nil {
		t.Fatalf("an empty run after Close: %v", err)
	}
	if err := sv.FeedRun(hexagon()[:1]); err == nil || !strings.Contains(err.Error(), "Feed after Close") {
		t.Fatalf("FeedRun after Close: %v", err)
	}
}

// TestPagedBitsDistinctness exercises the index bitset across page
// boundaries directly.
func TestPagedBitsDistinctness(t *testing.T) {
	b := pagedBits{size: 3 * pageBits}
	probes := []int{0, 1, pageBits - 1, pageBits, 2*pageBits + 7, 3*pageBits - 1}
	for _, i := range probes {
		if b.testAndSet(i) {
			t.Fatalf("bit %d set before first touch", i)
		}
	}
	for _, i := range probes {
		if !b.testAndSet(i) {
			t.Fatalf("bit %d lost", i)
		}
	}
	if b.testAndSet(2) {
		t.Fatal("untouched bit reads set")
	}
}

// TestPagedBitsSizedToSn pins the bitset's footprint to the index space
// of S_n in 24,576-bit pages (1024 blocks of 24 bits): S_5's 120
// indices take one page of 2 words, S_9's 362,880 fifteen pages, the
// last clamped to 294 words instead of a full 384, and S_10 148 pages,
// the last of 252 words. Touching the first and the last bit allocates
// those two pages and no others.
func TestPagedBitsSizedToSn(t *testing.T) {
	for _, c := range []struct{ n, pages, lastWords int }{
		{5, 1, 2},
		{9, 15, 294},
		{10, 148, 252},
	} {
		size := perm.Factorial(c.n)
		b := pagedBits{size: size}
		for _, i := range []int{0, size - 1} {
			if b.testAndSet(i) {
				t.Fatalf("n=%d: bit %d set before first touch", c.n, i)
			}
		}
		if want := min(c.pages, 2); len(b.pages) != want {
			t.Fatalf("n=%d: %d pages allocated, want %d", c.n, len(b.pages), want)
		}
		if got := len(b.pages[0]); c.pages > 1 && got != pageBits/64 {
			t.Fatalf("n=%d: first page %d words, want a full %d", c.n, got, pageBits/64)
		}
		if got := len(b.pages[c.pages-1]); got != c.lastWords {
			t.Fatalf("n=%d: last page %d words, want %d", c.n, got, c.lastWords)
		}
	}
}

// s4Cycle returns the Hamiltonian cycle of the S4 block through base
// whose free positions are 1, a, b and c, walked from base by a fixed
// sequence of 24 star steps.
func s4Cycle(base perm.Code, a, b, c int) []perm.Code {
	out := make([]perm.Code, 0, 24)
	v := base
	for i := 0; i < 2; i++ {
		for _, d := range [12]int{a, b, a, b, a, c, b, a, b, a, b, c} {
			out = append(out, v)
			v = v.SwapFirst(d)
		}
	}
	return out
}

// allocBytes returns the bytes one call of f allocates: the least of
// a few measured calls after a warm-up, so that an allocation by
// another goroutine (a finalizer after a GC, say) is not counted.
func allocBytes(f func()) uint64 {
	f()
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestStreamVerifierLearnsP pins where P comes from: position 1 and
// the first three distinct step dimensions. The block cycle below
// steps along 5, 2, 5, 2, 5 and then 7, so P is learned on its seventh
// vertex and not before; its 24 vertices fix no index and set no bit,
// and the verdict is the same as under the default P.
func TestStreamVerifierLearnsP(t *testing.T) {
	const n = 9
	g := star.New(n)
	cycle := s4Cycle(perm.IdentityCode(n), 5, 2, 7)
	sv := NewStreamVerifier(g, nil)
	for i, v := range cycle {
		if err := sv.Feed(v); err != nil {
			t.Fatal(err)
		}
		if learned := sv.dims == 1<<2|1<<5|1<<7; learned != (i >= 6) || sv.fixed {
			t.Fatalf("after %d vertices: P learned %v, index fixed %v", i+1, learned, sv.fixed)
		}
	}
	if err := sv.Close(24); err != nil {
		t.Fatal(err)
	}
	ix := newVertexIndex(n, sv.dims)
	for d := 2; d <= n; d++ {
		if in := ix.slot[d] != 0; in != (d == 2 || d == 5 || d == 7) {
			t.Errorf("dimension %d in P: %v", d, in)
		}
	}
	if _, err := stream(newStreamVerifierAt(g, nil, 0), sliceNext(cycle), 24); err != nil {
		t.Fatalf("default P: %v", err)
	}
}

// TestRingAllocsBoundedAtS16 holds a short ring in S_16 to what it
// touches: a 6-cycle and a block's 24-cycle never fix the index and
// so allocate no page. Either would have sized a page directory to
// 16! before the directory grew with the pages touched (913 MiB for
// the 6-cycle).
func TestRingAllocsBoundedAtS16(t *testing.T) {
	const n = 16
	g := star.New(n)
	v := perm.IdentityCode(n)
	hexagon := []perm.Code{v}
	for _, d := range []int{2, 3, 2, 3, 2} {
		v = v.SwapFirst(d)
		hexagon = append(hexagon, v)
	}
	block := s4Cycle(perm.UnrankCode(n, perm.Factorial(n)/3), 9, 13, 16)
	for _, c := range []struct {
		name  string
		ring  []perm.Code
		bound uint64
	}{
		{"6-cycle", hexagon, 1 << 20},
		{"block 24-cycle", block, pageBits/8 + 1<<10},
	} {
		var err error
		got := allocBytes(func() { err = Ring(g, c.ring, nil, len(c.ring)) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d bytes", c.name, got)
		if got > c.bound {
			t.Errorf("%s: check.Ring allocated %d bytes, want <= %d", c.name, got, c.bound)
		}
	}
}

// TestSpliceCheckAllocs bounds the repair splice's self-check: a
// 22-vertex path through one block of S_10 with six faults elsewhere
// is checked in at most 1 KiB — the verifier and its ends, no bitset
// page, page directory or fault index, since a path of at most 24
// vertices is checked by scanning.
func TestSpliceCheckAllocs(t *testing.T) {
	const n = 10
	g := star.New(n)
	path := s4Cycle(perm.UnrankCode(n, 1234567), 3, 6, 9)[:22]
	fs := faults.NewSet(n)
	for r := 11; fs.NumVertices() < 6; r += perm.Factorial(n) / 7 {
		if err := fs.AddVertex(perm.UnrankCode(n, r)); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	got := allocBytes(func() { err = Path(g, path, fs, path[0], path[21], 22) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d bytes", got)
	if got > 1<<10 {
		t.Errorf("22-vertex check.Path at n=10 allocated %d bytes, want <= %d", got, 1<<10)
	}
}
