// Package ringio serializes embedded rings so that a computed embedding
// can be stored, shipped to the job scheduler of a star-graph machine,
// and re-verified on load. Both formats are binary: a small header
// plus one Lehmer rank per vertex, varint-encoded (rings compress well
// because consecutive vertices differ by one star operation, but ranks
// keep decoding trivial and dimension-independent). WriteBinary writes
// the ranks flat (SRG1); WriteBinaryStream writes them in chunks (SRS1)
// so a producer never holds the ring. One decoder, StreamReader, reads
// both, and ReadBinary is that decoder drained into a slice.
//
// Loading re-validates structure: dimensions, vertex validity and the
// declared length must match. Adjacency re-verification is the caller's
// job (internal/check.Ring), since it needs the fault set.
package ringio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/perm"
)

// magic identifies the binary format ("SRG1" = star ring v1).
var magic = [4]byte{'S', 'R', 'G', '1'}

// ErrFormat reports malformed input.
var ErrFormat = errors.New("ringio: malformed input")

// maxPrealloc caps the capacity ReadBinary reserves from a header's
// declared length. The length is untrusted input that may claim up to
// 16! entries, so the ring grows past this only with entries actually
// read.
const maxPrealloc = 1 << 16

// WriteBinary encodes the ring in the compact binary format.
func WriteBinary(w io.Writer, n int, ring []perm.Code) error {
	if n < 1 || n > perm.MaxN {
		return fmt.Errorf("ringio: dimension %d out of range", n)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64 * 2]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	k += binary.PutUvarint(hdr[k:], uint64(len(ring)))
	if _, err := bw.Write(hdr[:k]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	for i, v := range ring {
		rank, ok := v.RankValid(n)
		if !ok {
			return fmt.Errorf("ringio: entry %d is not a vertex of S_%d", i, n)
		}
		k := binary.PutUvarint(buf[:], uint64(rank))
		if _, err := bw.Write(buf[:k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a whole ring in either format by draining
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
