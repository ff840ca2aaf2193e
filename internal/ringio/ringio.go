// Package ringio serializes embedded rings so that a computed embedding
// can be stored, shipped to the job scheduler of a star-graph machine,
// and re-verified on load. Two formats are provided:
//
//   - a compact binary format: a small header plus one Lehmer rank per
//     vertex, varint-encoded (rings compress well because consecutive
//     vertices differ by one star operation, but ranks keep decoding
//     trivial and dimension-independent);
//   - a line-oriented text format using the paper's permutation
//     notation, for human inspection and interoperability.
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
	"strings"

	"repro/internal/perm"
)

// magic identifies the binary format ("SRG1" = star ring v1).
var magic = [4]byte{'S', 'R', 'G', '1'}

// ErrFormat reports malformed input.
var ErrFormat = errors.New("ringio: malformed input")

// maxPrealloc caps the capacity the readers reserve from a header's
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

// ReadBinary decodes a ring written by WriteBinary, re-validating every
// vertex.
func ReadBinary(r io.Reader) (n int, ring []perm.Code, err error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if m != magic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrFormat, m[:])
	}
	nn, err := binary.ReadUvarint(br)
	if err != nil || nn < 1 || nn > perm.MaxN {
		return 0, nil, fmt.Errorf("%w: bad dimension", ErrFormat)
	}
	n = int(nn)
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: bad length", ErrFormat)
	}
	total := uint64(perm.Factorial(n))
	if length > total {
		return 0, nil, fmt.Errorf("%w: length %d exceeds n! = %d", ErrFormat, length, total)
	}
	ring = make([]perm.Code, 0, min(length, maxPrealloc))
	for i := uint64(0); i < length; i++ {
		rank, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: truncated at entry %d", ErrFormat, i)
		}
		if rank >= total {
			return 0, nil, fmt.Errorf("%w: rank %d out of range at entry %d", ErrFormat, rank, i)
		}
		ring = append(ring, perm.UnrankCode(n, int(rank)))
	}
	// Trailing garbage is an error: the format is self-delimiting.
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, nil, fmt.Errorf("%w: trailing data", ErrFormat)
	}
	return n, ring, nil
}

// WriteText encodes the ring as a header line "ring n=<n> len=<l>"
// followed by one permutation string per line.
func WriteText(w io.Writer, n int, ring []perm.Code) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "ring n=%d len=%d\n", n, len(ring)); err != nil {
		return err
	}
	for i, v := range ring {
		if !v.Valid(n) {
			return fmt.Errorf("ringio: entry %d is not a vertex of S_%d", i, n)
		}
		if _, err := fmt.Fprintln(bw, v.StringN(n)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes the text format.
func ReadText(r io.Reader) (n int, ring []perm.Code, err error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return 0, nil, fmt.Errorf("%w: empty input", ErrFormat)
	}
	var length int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "ring n=%d len=%d", &n, &length); err != nil {
		return 0, nil, fmt.Errorf("%w: bad header %q", ErrFormat, sc.Text())
	}
	if n < 1 || n > perm.MaxN || length < 0 || length > perm.Factorial(n) {
		return 0, nil, fmt.Errorf("%w: implausible header", ErrFormat)
	}
	ring = make([]perm.Code, 0, min(length, maxPrealloc))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		p, err := perm.Parse(line)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		if p.N() != n {
			return 0, nil, fmt.Errorf("%w: vertex %q has dimension %d, want %d", ErrFormat, line, p.N(), n)
		}
		ring = append(ring, perm.Pack(p))
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if len(ring) != length {
		return 0, nil, fmt.Errorf("%w: header says %d vertices, read %d", ErrFormat, length, len(ring))
	}
	return n, ring, nil
}
