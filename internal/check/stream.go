package check

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// StreamVerifier validates a ring incrementally, one vertex at a time,
// without ever holding the cycle: Feed checks each vertex as it
// arrives (validity, healthiness, adjacency to its predecessor, and
// distinctness), Close checks the wraparound edge and the length
// bounds. It is the package's one verifier: Ring feeds it from a
// slice, RingStream from any iterator, so rings too large to
// materialize — n = 10 is 3.6M vertices, n = 12 is 479M — are checked
// by the same code as small ones. Its open form, behind PathStream and
// Path, checks an s-t path with the same Feed; only Close differs.
//
// Distinctness is tracked by Lehmer rank in a lazily paged bitset
// sized to S_n: n!/8 bytes fully touched (79 words at n = 7), the same
// order as the O(#blocks) skeleton the embedder keeps (24 ring
// vertices ≈ 3 bitset bytes per block). Practical through n = 12
// (60 MB of bits); beyond that exact distinctness outgrows memory
// whatever the representation.
//
// The faulty vertices' bits are set when the verifier is created, so
// one bit test per vertex checks healthiness and distinctness together
// and the fault set is consulted only to word a rejection — or, per
// edge, when it holds faulty edges at all.
//
// A StreamVerifier is single-use: after Close (or the first error) it
// rejects further Feeds. The fault set must not change while it runs.
// Not safe for concurrent use.
type StreamVerifier struct {
	g    star.Graph
	fs   *faults.Set
	n    int
	seen pagedBits
	// edgeFaults is set when fs holds faulty edges; only then are the
	// ring's edges looked up in it.
	edgeFaults bool

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
	s := &StreamVerifier{g: g, fs: fs, n: n, seen: newPagedBits(perm.Factorial(n))}
	if fs != nil {
		for _, v := range fs.Vertices() {
			if r, ok := v.RankValid(n); ok {
				s.seen.testAndSet(r)
			}
		}
		s.edgeFaults = fs.NumEdges() > 0
	}
	return s
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
	i := s.count
	rank, ok := v.RankValid(s.n)
	if !ok {
		return s.fail("%w: entry %d (%#v) is not a vertex of S_%d", ErrInvalidRing, i, v, s.n)
	}
	if s.seen.testAndSet(rank) {
		// Set by an earlier visit, or at creation for a faulty vertex.
		if s.fs != nil && s.fs.HasVertex(v) {
			return s.fail("%w: faulty vertex %s at position %d", ErrInvalidRing, v.StringN(s.n), i)
		}
		return s.fail("%w: vertex %s repeats at position %d", ErrInvalidRing, v.StringN(s.n), i)
	}
	if i == 0 {
		s.first = v
	} else {
		if !s.g.Adjacent(s.prev, v) {
			return s.fail("%w: %s and %s (positions %d, %d) are not adjacent",
				ErrInvalidRing, s.prev.StringN(s.n), v.StringN(s.n), i-1, i)
		}
		if s.edgeFaults && s.fs.HasEdge(s.prev, v) {
			return s.fail("%w: faulty edge {%s, %s} used at position %d",
				ErrInvalidRing, s.prev.StringN(s.n), v.StringN(s.n), i-1)
		}
	}
	s.prev = v
	s.count++
	return nil
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
// stays bounded by the rank bitset regardless of ring length.
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

// pagedBits is a bitset over [0, size) whose backing pages are
// allocated on first touch, so sparse probes (short rings in a huge
// S_n) stay cheap while dense ones converge to size/8 bytes. The last
// page is clamped to the rank space, so a small S_n never pays for a
// full page.
type pagedBits struct {
	size  int
	pages [][]uint64
}

// pageBits is the span of one page: 1<<19 bits = 64 KiB of uint64s.
const pageBits = 1 << 19

func newPagedBits(size int) pagedBits {
	return pagedBits{size: size, pages: make([][]uint64, (size+pageBits-1)/pageBits)}
}

// pageWords returns the number of words backing page p: a full page,
// or for the last one just enough to cover the rest of [0, size).
func (b *pagedBits) pageWords(p int) int {
	bits := b.size - p*pageBits
	if bits > pageBits {
		bits = pageBits
	}
	return (bits + 63) / 64
}

// testAndSet sets bit i and reports whether it was already set.
func (b *pagedBits) testAndSet(i int) bool {
	p := i / pageBits
	page := b.pages[p]
	if page == nil {
		page = make([]uint64, b.pageWords(p))
		b.pages[p] = page
	}
	off := i % pageBits
	w, mask := off/64, uint64(1)<<(off%64)
	if page[w]&mask != 0 {
		return true
	}
	page[w] |= mask
	return false
}
