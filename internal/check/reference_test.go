package check_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// The differential oracle: a reference ring verifier that shares no
// code with the permutation kernel, run against check.RingStream on
// corrupted rings and, in its open mode, against check.PathStream on
// corrupted s-t paths. It unpacks each code with its own shift loop
// into one byte per nibble, keeps visited vertices in a map and tests
// adjacency by comparing the unpacked arrays. It calls no perm.Code
// method and no Perm.Rank, so a bug in RankValid or DimOf — the only
// kernel calls the stream verifier makes — or in the verifier's own
// vertex index shows up as a disagreement.

// refVertex holds all sixteen nibbles of a code, position 0 first.
type refVertex [16]uint8

// The reason classes, as fragments of check's error messages.
const (
	reasonInvalid     = "is not a vertex of"
	reasonFaulty      = "faulty vertex"
	reasonRepeat      = "repeats at position"
	reasonNotAdjacent = "are not adjacent"
	reasonFaultyEdge  = "faulty edge"
	reasonShort       = "< required"
	reasonTooFew      = "a cycle needs >= 3 vertices"
	reasonEmpty       = "empty path"
	reasonStart       = "path starts at"
	reasonEnd         = "path ends at"
)

// verdict is a verifier's decision: an empty reason accepts; otherwise
// pos is the index of the vertex being fed when the ring was rejected,
// or the ring length for a rejection at close.
type verdict struct {
	reason string
	pos    int
}

func unpack(c perm.Code) refVertex {
	var v refVertex
	w := uint64(c)
	for i := range v {
		v[i] = uint8(w & 0xF)
		w >>= 4
	}
	return v
}

// refValid: positions 0..n-1 hold 0..n-1 once each, the rest are zero.
func refValid(v refVertex, n int) bool {
	var seen [16]bool
	for i, s := range v {
		if i >= n {
			if s != 0 {
				return false
			}
			continue
		}
		if int(s) >= n || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// refAdjacent: u and v differ at position 0 and one position j < n
// only, and those two symbols are swapped.
func refAdjacent(u, v refVertex, n int) bool {
	j := -1
	for i := 1; i < len(u); i++ {
		if u[i] != v[i] {
			if j >= 0 {
				return false
			}
			j = i
		}
	}
	return j > 0 && j < n && u[0] == v[j] && u[j] == v[0]
}

// refVerify checks ring against the fault lists in the order
// check.StreamVerifier documents: per vertex validity, healthiness,
// distinctness, adjacency to its predecessor and the edge's health;
// then the length bounds and the closing edge — or, in the open mode
// (ends non-nil), the length bound, emptiness and the two ends.
func refVerify(ring []perm.Code, n int, fs *faults.Set, minLen int, ends *[2]perm.Code) verdict {
	faulty := map[refVertex]bool{}
	for _, f := range fs.Vertices() {
		faulty[unpack(f)] = true
	}
	badEdge := map[[2]refVertex]bool{}
	for _, e := range fs.Edges() {
		u, v := unpack(e.U), unpack(e.V)
		badEdge[[2]refVertex{u, v}] = true
		badEdge[[2]refVertex{v, u}] = true
	}
	seen := map[refVertex]int{}
	var first, prev refVertex
	for i, c := range ring {
		v := unpack(c)
		switch {
		case !refValid(v, n):
			return verdict{reasonInvalid, i}
		case faulty[v]:
			return verdict{reasonFaulty, i}
		}
		if _, dup := seen[v]; dup {
			return verdict{reasonRepeat, i}
		}
		seen[v] = i
		if i == 0 {
			first = v
		} else if !refAdjacent(prev, v, n) {
			return verdict{reasonNotAdjacent, i}
		} else if badEdge[[2]refVertex{prev, v}] {
			return verdict{reasonFaultyEdge, i}
		}
		prev = v
	}
	count := len(ring)
	if ends != nil {
		switch {
		case count < minLen:
			return verdict{reasonShort, count}
		case count == 0:
			return verdict{reasonEmpty, count}
		case first != unpack(ends[0]):
			return verdict{reasonStart, count}
		case prev != unpack(ends[1]):
			return verdict{reasonEnd, count}
		}
		return verdict{"", count}
	}
	switch {
	case count < minLen:
		return verdict{reasonShort, count}
	case count < 3:
		return verdict{reasonTooFew, count}
	case !refAdjacent(prev, first, n):
		return verdict{reasonNotAdjacent, count}
	case badEdge[[2]refVertex{prev, first}]:
		return verdict{reasonFaultyEdge, count}
	}
	return verdict{"", count}
}

// streamVerdict runs check.RingStream, or check.PathStream when ends
// is non-nil, and classifies its error. A non-nil dims forces the
// index's P to it instead of the one the verifier learns.
func streamVerdict(t *testing.T, ring []perm.Code, n int, fs *faults.Set, minLen int, ends *[2]perm.Code, dims *uint32) verdict {
	t.Helper()
	i := 0
	next := func() (perm.Code, bool) {
		if i == len(ring) {
			return 0, false
		}
		i++
		return ring[i-1], true
	}
	var count int
	var err error
	switch {
	case dims != nil:
		count, err = check.StreamAt(star.New(n), next, fs, ends, minLen, *dims)
	case ends == nil:
		count, err = check.RingStream(star.New(n), next, fs, minLen)
	default:
		count, err = check.PathStream(star.New(n), next, fs, ends[0], ends[1], minLen)
	}
	if err == nil {
		return verdict{"", count}
	}
	for _, r := range []string{reasonInvalid, reasonFaulty, reasonRepeat, reasonNotAdjacent,
		reasonFaultyEdge, reasonShort, reasonTooFew, reasonEmpty, reasonStart, reasonEnd} {
		if strings.Contains(err.Error(), r) {
			return verdict{r, count}
		}
	}
	t.Fatalf("unclassified verifier error: %v", err)
	return verdict{}
}

// Corruptions applied to a valid ring.
const (
	corruptNone = iota
	corruptSwap
	corruptDuplicate
	corruptFaultyVertex
	corruptFlipNibble
	corruptHighNibble
	corruptTruncate
	corruptFaultyEdge
	corruptReverse
	corruptBacktrack
	corruptRotate
	corruptKinds
)

// refInput is one fuzz case: a valid ring of S_n (n = 5 + nSel%2)
// embedded around random vertex faults drawn from seed — or, when
// path, a longest path between two random healthy vertices — one
// corruption of it chosen by kind and placed by a, b and x, and the
// minimum length (the paper bound when useMin, else 0).
type refInput struct {
	nSel    uint8
	seed    int64
	kind    uint8
	a, b    uint16
	x       uint8
	useMin  bool
	path    bool
	wantWhy string // the seed's intended reason class; fuzzed inputs leave it unset
}

// referenceSeeds has one corpus entry per reason class, plus a valid
// ring and a flipped nibble, then the open mode's: a valid path, a
// reversed one, truncations and a faulty edge; then a backtrack, whose
// repeat is reached through adjacent steps, and a rotation, which
// starts the ring two vertices before a block's end so that the
// verifier learns a different P, and is still accepted.
var referenceSeeds = []refInput{
	{nSel: 0, seed: 1, kind: corruptNone, wantWhy: ""},
	{nSel: 1, seed: 2, kind: corruptHighNibble, a: 7, b: 3, x: 4, wantWhy: reasonInvalid},
	{nSel: 1, seed: 3, kind: corruptFaultyVertex, a: 40, wantWhy: reasonFaulty},
	{nSel: 0, seed: 4, kind: corruptDuplicate, a: 3, b: 10, wantWhy: reasonRepeat},
	{nSel: 1, seed: 5, kind: corruptSwap, a: 3, b: 10, wantWhy: reasonNotAdjacent},
	{nSel: 0, seed: 6, kind: corruptFaultyEdge, a: 11, wantWhy: reasonFaultyEdge},
	{nSel: 1, seed: 7, kind: corruptTruncate, a: 50, useMin: true, wantWhy: reasonShort},
	{nSel: 0, seed: 8, kind: corruptTruncate, a: 2, wantWhy: reasonTooFew},
	{nSel: 1, seed: 9, kind: corruptFlipNibble, a: 17, b: 2, x: 1, wantWhy: reasonInvalid},
	{nSel: 0, seed: 11, kind: corruptNone, path: true, wantWhy: ""},
	{nSel: 1, seed: 12, kind: corruptReverse, path: true, wantWhy: reasonStart},
	{nSel: 0, seed: 13, kind: corruptTruncate, a: 50, path: true, wantWhy: reasonEnd},
	{nSel: 1, seed: 14, kind: corruptTruncate, a: 50, useMin: true, path: true, wantWhy: reasonShort},
	{nSel: 0, seed: 15, kind: corruptTruncate, a: 0, path: true, wantWhy: reasonEmpty},
	{nSel: 1, seed: 16, kind: corruptFaultyEdge, a: 30, path: true, wantWhy: reasonFaultyEdge},
	{nSel: 0, seed: 17, kind: corruptBacktrack, a: 30, b: 3, wantWhy: reasonRepeat},
	{nSel: 1, seed: 18, kind: corruptRotate, a: 22, wantWhy: ""},
}

// corrupted builds in's corrupted ring or path and returns it with its
// dimension, fault set, minimum length and, for a path, its ends. It
// reports false for a path EmbedPath cannot embed.
func corrupted(t *testing.T, in refInput) (ring []perm.Code, n int, fs *faults.Set, minLen int, ends *[2]perm.Code, ok bool) {
	t.Helper()
	n = 5 + int(in.nSel%2)
	rng := rand.New(rand.NewSource(in.seed))
	fs = faults.RandomVertices(n, rng.Intn(faults.MaxTolerated(n)+1), rng)
	var plan *core.Plan
	var err error
	if in.path {
		ends = &[2]perm.Code{}
		for ends[0] == ends[1] || fs.HasVertex(ends[0]) || fs.HasVertex(ends[1]) {
			ends[0], ends[1] = perm.UnrankCode(n, rng.Intn(perm.Factorial(n))), perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
		}
		if plan, err = core.EmbedPath(n, fs, ends[0], ends[1], core.Config{}); err != nil {
			// Some fault sets leave no Lemma 2 separation whose first
			// position splits the two ends: no path to corrupt.
			return nil, n, fs, 0, ends, false
		}
	} else {
		plan, err = core.Embed(n, fs, core.Config{})
	}
	if err != nil {
		t.Fatalf("embed: %v", err)
	}
	ring = plan.Ring()
	if in.useMin {
		minLen = plan.Result().Guarantee
	}
	i, j := int(in.a)%len(ring), int(in.b)%len(ring)
	nib := perm.Code(in.x%15 + 1)
	switch in.kind % corruptKinds {
	case corruptSwap:
		ring[i], ring[j] = ring[j], ring[i]
	case corruptDuplicate:
		ring[j] = ring[i]
	case corruptFaultyVertex:
		if vs := fs.Vertices(); len(vs) > 0 {
			ring[i] = vs[j%len(vs)]
		} else if err := fs.AddVertex(ring[i]); err != nil {
			t.Fatal(err)
		}
	case corruptFlipNibble:
		ring[i] ^= nib << (4 * uint(j%n))
	case corruptHighNibble:
		ring[i] |= nib << (4 * uint(n+j%(16-n)))
	case corruptTruncate:
		ring = ring[:int(in.a)%(len(ring)+1)]
	case corruptFaultyEdge:
		if in.path {
			i %= len(ring) - 1 // a path has no closing edge
		}
		if err := fs.AddEdge(ring[i], ring[(i+1)%len(ring)]); err != nil {
			t.Fatal(err)
		}
	case corruptReverse:
		slices.Reverse(ring)
	case corruptBacktrack:
		// Step from ring[i] along some dimension and straight back.
		ring = slices.Insert(ring, i+1, ring[i].SwapFirst(2+j%(n-1)), ring[i])
	case corruptRotate:
		ring = slices.Concat(ring[i:], ring[:i])
	}
	return ring, n, fs, minLen, ends, true
}

// differential builds in's corrupted ring or path, runs both
// verifiers on it and fails unless they reach the same verdict, which
// it returns. It reports false, having verified nothing, for a path
// EmbedPath cannot embed.
func differential(t *testing.T, in refInput) (verdict, bool) {
	t.Helper()
	ring, n, fs, minLen, ends, ok := corrupted(t, in)
	if !ok {
		return verdict{}, false
	}
	want := refVerify(ring, n, fs, minLen, ends)
	if got := streamVerdict(t, ring, n, fs, minLen, ends, nil); got != want {
		t.Fatalf("S_%d, path %v, corruption %d: check stream verifier %+v, reference %+v", n, in.path, in.kind%corruptKinds, got, want)
	}
	return want, true
}

// TestRingStreamReferenceSeeds pins the fuzz corpus: each seed reaches
// its intended reason class, under both verifiers.
func TestRingStreamReferenceSeeds(t *testing.T) {
	for _, in := range referenceSeeds {
		if got, ok := differential(t, in); !ok || got.reason != in.wantWhy {
			t.Errorf("seed %+v: embedded %v, verdict %+v, want reason %q", in, ok, got, in.wantWhy)
		}
	}
}

// TestRotationSeedMovesP checks that the rotation seed does what its
// comment says: the rotated ring's first steps name a different P
// than the ring's own.
func TestRotationSeedMovesP(t *testing.T) {
	for _, in := range referenceSeeds {
		if in.kind != corruptRotate {
			continue
		}
		rotated, n, _, _, _, _ := corrupted(t, in)
		plain := in
		plain.kind = corruptNone
		ring, _, _, _, _, _ := corrupted(t, plain)
		before, after := check.LearnedDims(n, ring), check.LearnedDims(n, rotated)
		if before == 0 || after == 0 || before == after {
			t.Errorf("seed %+v: learned P %#x before the rotation, %#x after", in, before, after)
		}
	}
}

// TestReferenceSeedsEveryP replays every corpus seed with the
// verifier's P forced to each admissible choice at the seed's n (4 at
// S_5, 10 at S_6): the index is a bijection for every P, so every
// verdict, reason and position must match the reference's.
func TestReferenceSeedsEveryP(t *testing.T) {
	for _, in := range referenceSeeds {
		ring, n, fs, minLen, ends, ok := corrupted(t, in)
		if !ok {
			t.Fatalf("seed %+v: no path to corrupt", in)
		}
		want := refVerify(ring, n, fs, minLen, ends)
		for _, dims := range check.AdmissibleDims(n) {
			if got := streamVerdict(t, ring, n, fs, minLen, ends, &dims); got != want {
				t.Errorf("seed %+v, P %#x: verdict %+v, reference %+v", in, dims, got, want)
			}
		}
	}
}

// FuzzRingStreamReference corrupts valid S_5 and S_6 rings from
// core.Embed and paths from core.EmbedPath — swap, duplicate, faulty
// vertex, flipped nibble, high nibble, truncation, faulty edge,
// reversal, backtrack, rotation — and demands that check.RingStream
// (check.PathStream for a path) and the reference verifier agree: both
// accept, or both reject at the same position for the same reason
// class.
func FuzzRingStreamReference(f *testing.F) {
	for _, in := range referenceSeeds {
		f.Add(in.nSel, in.seed, in.kind, in.a, in.b, in.x, in.useMin, in.path)
	}
	f.Fuzz(func(t *testing.T, nSel uint8, seed int64, kind uint8, a, b uint16, x uint8, useMin, path bool) {
		if _, ok := differential(t, refInput{nSel: nSel, seed: seed, kind: kind, a: a, b: b, x: x, useMin: useMin, path: path}); !ok {
			t.Skip("no path to corrupt")
		}
	})
}
