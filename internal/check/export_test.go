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

// VerifierAt returns a verifier whose index's P is forced to dims (see
// newVertexIndex): a ring's when ends is nil, the open form's from
// ends[0] to ends[1] otherwise.
func VerifierAt(g star.Graph, fs *faults.Set, ends *[2]perm.Code, dims uint32) *StreamVerifier {
	sv := newStreamVerifierAt(g, fs, dims)
	sv.ends = ends
	return sv
}

// StreamAt runs the stream verifier with its index's P forced to dims:
// RingStream's checks when ends is nil, PathStream's from ends[0] to
// ends[1] otherwise.
func StreamAt(g star.Graph, next func() (perm.Code, bool), fs *faults.Set, ends *[2]perm.Code, minLen int, dims uint32) (int, error) {
	return stream(VerifierAt(g, fs, ends, dims), next, minLen)
}

// IndexOf returns v's bit in the bitset of a verifier of S_n whose P
// dims names: A(v)·k! + L(v), so v's block run is IndexOf/24 and its
// page IndexOf/PageBits.
func IndexOf(n int, dims uint32, v perm.Code) int {
	x := newVertexIndex(n, dims)
	return x.index(v)
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
