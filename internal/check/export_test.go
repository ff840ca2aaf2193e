package check

import (
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// newStreamVerifierAt returns a verifier whose index uses the P that
// dims names (see newVertexIndex) from the first vertex on, in place
// of the one it would learn from the stream.
func newStreamVerifierAt(g star.Graph, fs *faults.Set, dims uint32) *StreamVerifier {
	s := NewStreamVerifier(g, fs)
	s.fix(dims)
	return s
}

// PageBits is the span of one page of the verifier's bitset.
const PageBits = pageBits

// AllocBytes is allocBytes, the bytes one call of f allocates.
var AllocBytes = allocBytes

// AdmissibleDims lists every P of S_n (see admissibleDims).
var AdmissibleDims = admissibleDims

// StreamAt runs the stream verifier with its index's P forced to dims
// (see newVertexIndex): RingStream's checks when ends is nil,
// PathStream's from ends[0] to ends[1] otherwise.
func StreamAt(g star.Graph, next func() (perm.Code, bool), fs *faults.Set, ends *[2]perm.Code, minLen int, dims uint32) (int, error) {
	sv := newStreamVerifierAt(g, fs, dims)
	sv.ends = ends
	return stream(sv, next, minLen)
}

// LearnedDims feeds ring to a fresh verifier of S_n and returns the
// dims mask its P was learned from, or 0 when the ring ends (or is
// rejected) before P is fixed.
func LearnedDims(n int, ring []perm.Code) uint32 {
	sv := NewStreamVerifier(star.New(n), nil)
	for _, v := range ring {
		if sv.Feed(v) != nil || sv.fixed {
			break
		}
	}
	if !sv.fixed {
		return 0
	}
	return sv.dims
}
