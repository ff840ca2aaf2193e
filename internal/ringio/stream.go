package ringio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/perm"
)

// magicStream identifies the chunked binary format ("SRS1" = star ring
// stream v1). It shares the SRG1 header (uvarint dimension, uvarint
// length) but carries the ranks in length-prefixed chunks ended by a
// zero terminator, so a producer can emit a multi-million-vertex ring
// without ever holding it and a consumer can detect truncation at
// chunk granularity.
var magicStream = [4]byte{'S', 'R', 'S', '1'}

// streamChunk is the number of ranks per chunk: big enough to amortize
// framing (one uvarint per 4096 ranks), small enough that writer-side
// buffering stays a few tens of KB.
const streamChunk = 4096

// WriteBinaryStream encodes a ring delivered by an iterator into the
// chunked binary format: next returns consecutive cycle vertices and
// false at the end. length must declare the exact count up front (the
// embedder knows it from the skeleton without materializing anything);
// a producer that stops early or runs long is an error, so a reader
// can trust the header. Writer-side memory is one chunk regardless of
// ring length.
func WriteBinaryStream(w io.Writer, n int, length int, next func() (perm.Code, bool)) error {
	if n < 1 || n > perm.MaxN {
		return fmt.Errorf("ringio: dimension %d out of range", n)
	}
	if length < 0 || length > perm.Factorial(n) {
		return fmt.Errorf("ringio: length %d exceeds n! = %d", length, perm.Factorial(n))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicStream[:]); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64 * 2]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	k += binary.PutUvarint(hdr[k:], uint64(length))
	if _, err := bw.Write(hdr[:k]); err != nil {
		return err
	}

	// Chunks are framed count-first, so ranks are staged here until the
	// chunk fills (or the stream ends) and the prefix is known.
	chunk := make([]byte, 0, streamChunk*binary.MaxVarintLen64)
	var buf [binary.MaxVarintLen64]byte
	inChunk := 0
	written := 0
	flush := func() error {
		if inChunk == 0 {
			return nil
		}
		k := binary.PutUvarint(buf[:], uint64(inChunk))
		if _, err := bw.Write(buf[:k]); err != nil {
			return err
		}
		if _, err := bw.Write(chunk); err != nil {
			return err
		}
		chunk = chunk[:0]
		inChunk = 0
		return nil
	}
	for {
		v, ok := next()
		if !ok {
			break
		}
		rank, ok := v.RankValid(n)
		if !ok {
			return fmt.Errorf("ringio: entry %d is not a vertex of S_%d", written, n)
		}
		if written >= length {
			return fmt.Errorf("ringio: producer exceeded declared length %d", length)
		}
		k := binary.PutUvarint(buf[:], uint64(rank))
		chunk = append(chunk, buf[:k]...)
		written++
		if inChunk++; inChunk == streamChunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if written != length {
		return fmt.Errorf("ringio: producer emitted %d vertices, header declares %d", written, length)
	}
	if err := flush(); err != nil {
		return err
	}
	// The zero terminator distinguishes a complete stream from one cut
	// off at a chunk boundary.
	k = binary.PutUvarint(buf[:], 0)
	if _, err := bw.Write(buf[:k]); err != nil {
		return err
	}
	return bw.Flush()
}

// StreamReader decodes a ring one vertex at a time, scanner-style:
// Next until it returns false, then Err for the verdict. It accepts
// both the chunked SRS1 format and the flat SRG1 format (a legacy file
// is just a single implicit chunk), so constant-memory consumers like
// `starverify` work on either. Memory is O(1) in ring length.
type StreamReader struct {
	br      *bufio.Reader
	n       int
	length  uint64
	total   uint64 // n!
	chunked bool

	read      uint64
	chunkLeft uint64
	err       error
	done      bool
}

// ReadBinaryStream opens a streaming decoder, consuming and validating
// the header: magic (SRS1 or SRG1), dimension, and declared length,
// which is rejected when it exceeds n!.
func ReadBinaryStream(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	var chunked bool
	switch m {
	case magicStream:
		chunked = true
	case magic:
		chunked = false
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, m[:])
	}
	nn, err := binary.ReadUvarint(br)
	if err != nil || nn < 1 || nn > perm.MaxN {
		return nil, fmt.Errorf("%w: bad dimension", ErrFormat)
	}
	n := int(nn)
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: bad length", ErrFormat)
	}
	total := uint64(perm.Factorial(n))
	if length > total {
		return nil, fmt.Errorf("%w: length %d exceeds n! = %d", ErrFormat, length, total)
	}
	return &StreamReader{br: br, n: n, length: length, total: total, chunked: chunked}, nil
}

// N returns the ring's dimension.
func (s *StreamReader) N() int { return s.n }

// Len returns the header-declared ring length.
func (s *StreamReader) Len() int { return int(s.length) }

// Next returns the next ring vertex; false at the end of the stream or
// on error (check Err afterwards — a clean end reports nil).
func (s *StreamReader) Next() (perm.Code, bool) {
	var zero perm.Code
	if s.done {
		return zero, false
	}
	if s.read == s.length {
		s.finish()
		return zero, false
	}
	if s.chunked && s.chunkLeft == 0 {
		c, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.fail(fmt.Errorf("%w: truncated chunk header at entry %d", ErrFormat, s.read))
			return zero, false
		}
		if c == 0 || c > s.length-s.read {
			s.fail(fmt.Errorf("%w: chunk of %d ranks at entry %d (need %d more)", ErrFormat, c, s.read, s.length-s.read))
			return zero, false
		}
		s.chunkLeft = c
	}
	rank, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.fail(fmt.Errorf("%w: truncated at entry %d", ErrFormat, s.read))
		return zero, false
	}
	if rank >= s.total {
		s.fail(fmt.Errorf("%w: rank %d out of range at entry %d", ErrFormat, rank, s.read))
		return zero, false
	}
	if s.chunked {
		s.chunkLeft--
	}
	s.read++
	return perm.UnrankCode(s.n, int(rank)), true
}

// finish validates the end of a fully-read stream: the chunked format
// must close with its zero terminator, and both formats are
// self-delimiting — trailing bytes are an error.
func (s *StreamReader) finish() {
	s.done = true
	if s.chunked {
		c, err := binary.ReadUvarint(s.br)
		if err != nil || c != 0 {
			s.err = fmt.Errorf("%w: missing stream terminator", ErrFormat)
			return
		}
	}
	if _, err := s.br.ReadByte(); err != io.EOF {
		s.err = fmt.Errorf("%w: trailing data", ErrFormat)
	}
}

func (s *StreamReader) fail(err error) {
	s.done = true
	s.err = err
}

// Err returns the terminal error: nil only when the stream delivered
// exactly the declared number of valid ranks and ended cleanly.
func (s *StreamReader) Err() error { return s.err }
