package check

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// StreamVerifier validates a ring incrementally, one vertex at a time,
// without ever holding the cycle: Feed checks each vertex as it
// arrives (validity, healthiness, distinctness, adjacency to its
// predecessor), Close checks the wraparound edge and the length
// bounds. It is the package's one verifier: Ring feeds it from a
// slice, RingStream from any iterator, so rings too large to
// materialize — n = 10 is 3.6M vertices, n = 12 is 479M — are checked
// by the same code as small ones. Its open form, behind PathStream and
// Path, checks an s-t path with the same Feed; only Close differs.
//
// Feed tests adjacency first (perm.DimOf). A vertex adjacent to a
// valid predecessor is itself valid, so validity is tested only on the
// first vertex and on one that fails adjacency; for the latter the
// checks are replayed in the documented order, so the reason and
// position of a rejection do not depend on the order they run in.
//
// Distinctness is tracked in a bitset over S_n indexed by vertexIndex,
// a bijection onto [0, n!) that follows star steps: with P the first
// three distinct step dimensions the stream takes (plus position 1), a
// step inside P updates the index by one table read, and any other
// step — once per S4 block in the paper's rings — recomputes it. The
// first 24 vertices, a block's worth, set no bit: repeats among them
// are found by scanning the vertices so far and faults by asking the
// fault set, while P is learned from their steps (it is known by the
// seventh vertex, since two dimensions confine a path to an S_3). The
// 25th vertex fixes the index and marks the 24 before it. The index is
// a bijection for every P, so P changes the speed, never the verdict.
//
// The bitset is paged: a page holds 1024 blocks' runs of k! = 24 bits
// (3 KiB) and is allocated on first touch, and the page directory
// grows with the pages touched, so memory follows the vertices fed —
// n!/8 bytes for a whole ring (79 words at n = 7, 60 MB at n = 12,
// beyond which exact distinctness of a whole ring outgrows memory
// whatever the representation), and none for a repair's segment of at
// most 24 vertices at any n. A faulty
// vertex's bit is set when its page is allocated, so one bit test per
// vertex checks healthiness and distinctness together and the fault
// set is consulted only to word a rejection — or, per edge, when it
// holds faulty edges at all.
//
// A StreamVerifier is single-use: after Close (or the first error) it
// rejects further Feeds. The fault set must not change while it runs.
// Not safe for concurrent use.
type StreamVerifier struct {
	g  star.Graph
	fs *faults.Set
	n  int
	// edgeFaults is set when fs holds faulty edges; only then are the
	// ring's edges looked up in it.
	edgeFaults bool

	// Until fixed, dims collects the first k−1 distinct step
	// dimensions (bit d for dimension d) and early the vertices fed, at
	// most 24 of them; then ix is the index and seen its bitset.
	fixed bool
	dims  uint32
	early [24]perm.Code
	ix    vertexIndex
	seen  pagedBits
	// page is the current block's page of seen, base the offset of the
	// block's run in it and l the last vertex's L, so the last vertex's
	// bit is base+l.
	page []uint64
	base int
	l    int

	first, prev perm.Code
	count       int
	err         error
	closed      bool
	// ends marks the open form: a path's source and target, which Close
	// checks in place of a ring's closing edge; nil for a ring.
	ends *[2]perm.Code
}

// NewStreamVerifier returns a verifier for rings of S_n streamed
// vertex by vertex. fs may be nil for the fault-free case.
func NewStreamVerifier(g star.Graph, fs *faults.Set) *StreamVerifier {
	n := g.N()
	s := &StreamVerifier{g: g, fs: fs, n: n, seen: pagedBits{size: perm.Factorial(n)}}
	if fs != nil {
		s.edgeFaults = fs.NumEdges() > 0
	}
	return s
}

// fix fixes the index's P from dims, lists the faults' indices for the
// bitset to mark page by page, and marks the vertices fed so far.
func (s *StreamVerifier) fix(dims uint32) {
	s.fixed = true
	s.ix = newVertexIndex(s.n, dims)
	if s.fs != nil {
		for _, v := range s.fs.Vertices() {
			if v.Valid(s.n) {
				s.seen.faults = append(s.seen.faults, s.ix.index(v))
			}
		}
		slices.Sort(s.seen.faults)
	}
	for _, v := range s.early[:s.count] {
		s.seen.testAndSet(s.ix.index(v))
	}
}

// fail records and returns the verifier's terminal error.
func (s *StreamVerifier) fail(format string, args ...interface{}) error {
	s.err = fmt.Errorf(format, args...)
	return s.err
}

// Feed validates the next ring vertex. The first error is terminal and
// re-returned by Close.
func (s *StreamVerifier) Feed(v perm.Code) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return s.fail("%w: Feed after Close", ErrInvalidRing)
	}
	if s.count == 0 {
		if !v.Valid(s.n) {
			return s.invalid(v)
		}
		if s.enter(v, 0) {
			return s.visited(v)
		}
		s.first = v
	} else {
		d := perm.DimOf(s.prev, v, s.n)
		if d == 0 {
			return s.notAdjacent(v)
		}
		if l, ok := s.ix.step(s.l, d); ok {
			s.l = l
			if s.mark() {
				return s.visited(v)
			}
		} else if s.enter(v, d) {
			return s.visited(v)
		}
		if s.edgeFaults && s.fs.HasEdge(s.prev, v) {
			return s.fail("%w: faulty edge {%s, %s} used at position %d",
				ErrInvalidRing, s.prev.StringN(s.n), v.StringN(s.n), s.count-1)
		}
	}
	s.prev = v
	s.count++
	return nil
}

// enter marks v, reached from its predecessor by a step along
// dimension d (0 for the first vertex), when the index cannot step to
// it: among the first 24 vertices it learns P from d and checks v
// against the fault set and the vertices so far, and afterwards it
// locates v from scratch. It reports whether v is faulty or was
// visited before.
func (s *StreamVerifier) enter(v perm.Code, d int) bool {
	if !s.fixed {
		if bits.OnesCount32(s.dims) < min(s.n, 4)-1 {
			s.dims |= 1 << d &^ 1
		}
		if s.count < len(s.early) {
			if s.seenEarly(v) {
				return true
			}
			s.early[s.count] = v
			return false
		}
		s.fix(s.dims)
	}
	a, l := s.ix.locate(v)
	s.page, s.base, s.l = s.seen.page(a/pageBlocks), a%pageBlocks*s.ix.kf, l
	return s.mark()
}

// seenEarly is distinctness and healthiness before the index is
// fixed: it reports whether v is faulty or among the vertices fed so
// far.
func (s *StreamVerifier) seenEarly(v perm.Code) bool {
	return (s.fs != nil && s.fs.HasVertex(v)) || slices.Contains(s.early[:s.count], v)
}

// mark sets the last vertex's bit, base+l in the current page, and
// reports whether it was already set.
func (s *StreamVerifier) mark() bool {
	off := uint(s.base + s.l)
	w, mask := off/64, uint64(1)<<(off%64)
	if s.page[w]&mask != 0 {
		return true
	}
	s.page[w] |= mask
	return false
}

// visited returns the rejection of a vertex whose bit was already set:
// faulty when the fault set holds it, a repeat otherwise.
func (s *StreamVerifier) visited(v perm.Code) error {
	if s.fs != nil && s.fs.HasVertex(v) {
		return s.fail("%w: faulty vertex %s at position %d", ErrInvalidRing, v.StringN(s.n), s.count)
	}
	return s.fail("%w: vertex %s repeats at position %d", ErrInvalidRing, v.StringN(s.n), s.count)
}

// invalid returns the rejection of a code that is not a vertex of S_n.
func (s *StreamVerifier) invalid(v perm.Code) error {
	return s.fail("%w: entry %d (%#v) is not a vertex of S_%d", ErrInvalidRing, s.count, v, s.n)
}

// notAdjacent returns the rejection of a vertex that is not adjacent
// to its predecessor, after the checks that come first: validity, then
// healthiness and distinctness.
func (s *StreamVerifier) notAdjacent(v perm.Code) error {
	if !v.Valid(s.n) {
		return s.invalid(v)
	}
	if s.fixed && s.seen.testAndSet(s.ix.index(v)) || !s.fixed && s.seenEarly(v) {
		return s.visited(v)
	}
	return s.fail("%w: %s and %s (positions %d, %d) are not adjacent",
		ErrInvalidRing, s.prev.StringN(s.n), v.StringN(s.n), s.count-1, s.count)
}

// Count returns the number of vertices fed so far.
func (s *StreamVerifier) Count() int { return s.count }

// Close checks the closing conditions — at least minLen vertices, and
// for a ring at least 3 and a healthy wraparound edge, for a path at
// least one, from its source to its target — and returns the verdict
// for the whole stream. Idempotent; a Feed error is sticky and
// re-returned.
func (s *StreamVerifier) Close(minLen int) error {
	if s.err != nil {
		return s.err
	}
	if !s.closed {
		s.closed = true
		if s.count < minLen {
			return s.fail("%w: length %d < required %d", ErrInvalidRing, s.count, minLen)
		}
		switch {
		case s.ends == nil: // a ring: check the closing edge below
		case s.count == 0:
			return s.fail("%w: empty path", ErrInvalidRing)
		case s.first != s.ends[0]:
			return s.fail("%w: path starts at %s, want %s", ErrInvalidRing, s.first.StringN(s.n), s.ends[0].StringN(s.n))
		case s.prev != s.ends[1]:
			return s.fail("%w: path ends at %s, want %s", ErrInvalidRing, s.prev.StringN(s.n), s.ends[1].StringN(s.n))
		default:
			return nil
		}
		if s.count < 3 {
			return s.fail("%w: a cycle needs >= 3 vertices, got %d", ErrInvalidRing, s.count)
		}
		if !s.g.Adjacent(s.prev, s.first) {
			return s.fail("%w: %s and %s (positions %d, %d) are not adjacent",
				ErrInvalidRing, s.prev.StringN(s.n), s.first.StringN(s.n), s.count-1, 0)
		}
		if s.edgeFaults && s.fs.HasEdge(s.prev, s.first) {
			return s.fail("%w: faulty edge {%s, %s} used at position %d",
				ErrInvalidRing, s.prev.StringN(s.n), s.first.StringN(s.n), s.count-1)
		}
	} else if s.count < minLen {
		return fmt.Errorf("%w: length %d < required %d", ErrInvalidRing, s.count, minLen)
	}
	return nil
}

// RingStream verifies a ring delivered by an iterator: next returns
// consecutive cycle vertices and false when the cycle is complete. The
// verdict and the number of vertices consumed are returned; memory
// stays bounded by the pages of the index bitset the ring touches,
// regardless of its length.
func RingStream(g star.Graph, next func() (perm.Code, bool), fs *faults.Set, minLen int) (int, error) {
	return stream(NewStreamVerifier(g, fs), next, minLen)
}

// PathStream verifies an s-t path delivered by an iterator: the same
// per-vertex checks as RingStream, then, in place of the closing edge,
// that the path runs from s to t and holds at least minLen vertices.
func PathStream(g star.Graph, next func() (perm.Code, bool), fs *faults.Set, s, t perm.Code, minLen int) (int, error) {
	sv := NewStreamVerifier(g, fs)
	sv.ends = &[2]perm.Code{s, t}
	return stream(sv, next, minLen)
}

// stream feeds sv every vertex next yields and closes it.
func stream(sv *StreamVerifier, next func() (perm.Code, bool), minLen int) (int, error) {
	for {
		v, ok := next()
		if !ok {
			break
		}
		if err := sv.Feed(v); err != nil {
			return sv.Count(), err
		}
	}
	return sv.Count(), sv.Close(minLen)
}

// pagedBits is a bitset over [0, size) held in pages of pageBits bits,
// each allocated on first touch, with the faults' bits that fall in it
// already set. The directory maps page numbers to pages, so it grows
// with the pages touched, not with size: a short ring in S_16 pays for
// a page or two, while a whole ring converges to size/8 bytes. The
// last page is clamped to the index space, so a small S_n never pays
// for a full page.
type pagedBits struct {
	size  int
	pages map[int][]uint64
	// faults holds the faulty vertices' indices, ascending.
	faults []int
}

// pageBlocks is the number of k!-bit block runs in one page, and
// pageBits a page's span: 24 Ki bits, 3 KiB of uint64s.
const (
	pageBlocks = 1 << 10
	pageBits   = pageBlocks * 24
)

// pageWords returns the number of words backing page p: a full page,
// or for the last one just enough to cover the rest of [0, size).
func (b *pagedBits) pageWords(p int) int {
	return (min(b.size-p*pageBits, pageBits) + 63) / 64
}

// page returns page p, allocating it on first touch and setting the
// bits of the faults it spans.
func (b *pagedBits) page(p int) []uint64 {
	if page, ok := b.pages[p]; ok {
		return page
	}
	if b.pages == nil {
		b.pages = make(map[int][]uint64)
	}
	page := make([]uint64, b.pageWords(p))
	lo := p * pageBits
	i, _ := slices.BinarySearch(b.faults, lo)
	for ; i < len(b.faults) && b.faults[i] < lo+pageBits; i++ {
		off := b.faults[i] - lo
		page[off/64] |= 1 << (off % 64)
	}
	b.pages[p] = page
	return page
}

// testAndSet sets bit i and reports whether it was already set.
func (b *pagedBits) testAndSet(i int) bool {
	page := b.page(i / pageBits)
	off := i % pageBits
	w, mask := off/64, uint64(1)<<(off%64)
	if page[w]&mask != 0 {
		return true
	}
	page[w] |= mask
	return false
}
