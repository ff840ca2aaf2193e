// Package ringio serializes embedded rings so that a computed embedding
// can be stored, shipped to the job scheduler of a star-graph machine,
// and re-verified on load. The written format, SRS2, is binary: a small
// header, then chunks of one byte per vertex. Consecutive ring vertices
// differ by one star operation, so a byte d names the previous vertex
// with positions 1 and d swapped; only the first vertex, and any vertex
// not adjacent to its predecessor, is escaped to a varint Lehmer rank.
//
// Steps replaced a rank per vertex because ranking and unranking every
// vertex was the stream pipeline's costliest layer: on S_9 rings with
// six faults (traced perfbench stream_n9 runs, 2-vCPU Xeon), writing
// ranks took 36-45 ns per vertex and reading them 49-56 ns, against 14
// and 11-12 ns for steps, and a file holds one byte per vertex instead
// of three.
//
// WriteBinaryStream writes SRS2 from an iterator, so a producer never
// holds the ring, and WriteBinary writes it from a slice. One decoder,
// StreamReader, reads SRS2 and the two rank formats it replaced (flat
// SRG1 and chunked SRS1), and ReadBinary is that decoder drained into
// a slice.
//
// Loading re-validates structure: dimensions, vertex validity and the
// declared length must match. Adjacency re-verification is the caller's
// job (internal/check.Ring), since it needs the fault set.
package ringio

import (
	"errors"
	"io"

	"repro/internal/perm"
)

// ErrFormat reports malformed input.
var ErrFormat = errors.New("ringio: malformed input")

// maxPrealloc caps the capacity ReadBinary reserves from a header's
// declared length. The length is untrusted input that may claim up to
// 16! entries, so the ring grows past this only with entries actually
// read.
const maxPrealloc = 1 << 16

// WriteBinary encodes a materialized ring in the SRS2 format:
// WriteBinaryStream over the slice.
func WriteBinary(w io.Writer, n int, ring []perm.Code) error {
	return WriteBinaryStream(w, n, len(ring), sliceNext(ring))
}

// sliceNext adapts a materialized ring to the producer iterator shape.
func sliceNext(ring []perm.Code) func() (perm.Code, bool) {
	i := 0
	return func() (perm.Code, bool) {
		if i >= len(ring) {
			var zero perm.Code
			return zero, false
		}
		v := ring[i]
		i++
		return v, true
	}
}

// ReadBinary decodes a whole ring in any format by draining
// ReadBinaryStream, so it makes every check the stream decoder makes.
func ReadBinary(r io.Reader) (n int, ring []perm.Code, err error) {
	sr, err := ReadBinaryStream(r)
	if err != nil {
		return 0, nil, err
	}
	ring = make([]perm.Code, 0, min(sr.Len(), maxPrealloc))
	for v, ok := sr.Next(); ok; v, ok = sr.Next() {
		ring = append(ring, v)
	}
	if err := sr.Err(); err != nil {
		return 0, nil, err
	}
	return sr.N(), ring, nil
}
