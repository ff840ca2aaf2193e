package ringio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/perm"
)

// magicStream identifies the written format ("SRS2" = star ring stream
// v2). After the header (uvarint dimension, uvarint length) the entries
// come in count-prefixed chunks ended by a zero terminator, so a
// producer can emit a multi-million-vertex ring without ever holding it
// and a consumer can detect truncation at chunk granularity. An entry
// is one byte: d in [2, n] is the previous vertex with positions 1 and
// d swapped, and escape is followed by the vertex's uvarint rank.
var magicStream = [4]byte{'S', 'R', 'S', '2'}

// magicRanks ("SRS1") and magicFlat ("SRG1") identify the two formats
// SRS2 replaced, which are still read: SRS1 is SRS2's framing with a
// bare uvarint rank for every entry, SRG1 the same ranks after the
// header with no chunks and no terminator.
var (
	magicRanks = [4]byte{'S', 'R', 'S', '1'}
	magicFlat  = [4]byte{'S', 'R', 'G', '1'}
)

// escape is the SRS2 entry byte that precedes a rank: the first vertex
// and any vertex not adjacent to its predecessor take one.
const escape = 0

// streamChunk is the number of entries per chunk: big enough to
// amortize framing (one uvarint per 4096 entries), small enough that
// the writer's one staged chunk stays a few KB.
const streamChunk = 4096

// WriteBinaryStream encodes a ring delivered by an iterator in the SRS2
// format: next returns consecutive cycle vertices and false at the end.
// length must declare the exact count up front (the embedder knows it
// from the skeleton without materializing anything); a producer that
// stops early or runs long is an error, so a reader can trust the
// header. Since the length fixes every chunk's count, each chunk is
// staged whole behind its count and written with one call: writer-side
// memory is one chunk regardless of ring length. Only escaped vertices
// are validated and ranked, since a star step from a vertex of S_n is
// one.
func WriteBinaryStream(w io.Writer, n int, length int, next func() (perm.Code, bool)) error {
	if n < 1 || n > perm.MaxN {
		return fmt.Errorf("ringio: dimension %d out of range", n)
	}
	if length < 0 || length > perm.Factorial(n) {
		return fmt.Errorf("ringio: length %d exceeds n! = %d", length, perm.Factorial(n))
	}
	// buf holds the header, then one chunk at a time; a chunk of steps
	// fits, and escapes grow it.
	buf := make([]byte, 0, 2*streamChunk)
	buf = append(buf, magicStream[:]...)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(length))
	// None is adjacent to no code, so the first vertex escapes.
	prev := perm.None
	written := 0
	for v, ok := next(); ok; v, ok = next() {
		if written == length {
			return fmt.Errorf("ringio: producer exceeded declared length %d", length)
		}
		if written%streamChunk == 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = binary.AppendUvarint(buf[:0], uint64(min(streamChunk, length-written)))
		}
		if d := perm.DimOf(prev, v, n); d != 0 {
			buf = append(buf, byte(d))
		} else {
			rank, ok := v.RankValid(n)
			if !ok {
				return fmt.Errorf("ringio: entry %d is not a vertex of S_%d", written, n)
			}
			buf = binary.AppendUvarint(append(buf, escape), uint64(rank))
		}
		prev = v
		written++
	}
	if written != length {
		return fmt.Errorf("ringio: producer emitted %d vertices, header declares %d", written, length)
	}
	// The zero terminator distinguishes a complete stream from one cut
	// off at a chunk boundary.
	_, err := w.Write(append(buf, 0))
	return err
}

// StreamReader decodes a ring one vertex at a time, scanner-style:
// Next until it returns false, then Err for the verdict. It reads the
// SRS2 format WriteBinaryStream writes and both rank formats before it,
// chunked SRS1 and flat SRG1 (a single implicit chunk), whose every
// entry takes the rank path an SRS2 escape takes; so constant-memory
// consumers like `starverify` work on files of any age. Memory is O(1)
// in ring length.
type StreamReader struct {
	br      *bufio.Reader
	n       int
	length  uint64
	total   uint64 // n!
	chunked bool   // SRS2 or SRS1: count-prefixed chunks, terminator
	steps   bool   // SRS2: step bytes and escaped ranks

	prev      perm.Code // the last vertex read, which a step swaps
	read      uint64
	chunkLeft uint64
	err       error
	done      bool
}

// ReadBinaryStream opens a streaming decoder, consuming and validating
// the header: magic (SRS2, SRS1 or SRG1), dimension, and declared
// length, which is rejected when it exceeds n!.
func ReadBinaryStream(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	var chunked, steps bool
	switch m {
	case magicStream:
		chunked, steps = true, true
	case magicRanks:
		chunked = true
	case magicFlat:
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
	return &StreamReader{br: br, n: n, length: length, total: total, chunked: chunked, steps: steps}, nil
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
			s.fail(fmt.Errorf("%w: chunk of %d entries at entry %d (need %d more)", ErrFormat, c, s.read, s.length-s.read))
			return zero, false
		}
		s.chunkLeft = c
	}
	// The rank formats' entries are all escapes, without the byte.
	b := byte(escape)
	if s.steps {
		var err error
		if b, err = s.br.ReadByte(); err != nil {
			s.fail(fmt.Errorf("%w: truncated at entry %d", ErrFormat, s.read))
			return zero, false
		}
	}
	var v perm.Code
	switch {
	case b == escape:
		rank, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.fail(fmt.Errorf("%w: truncated at entry %d", ErrFormat, s.read))
			return zero, false
		}
		if rank >= s.total {
			s.fail(fmt.Errorf("%w: rank %d out of range at entry %d", ErrFormat, rank, s.read))
			return zero, false
		}
		v = perm.UnrankCode(s.n, int(rank))
	case b == 1 || int(b) > s.n:
		s.fail(fmt.Errorf("%w: entry byte %d at entry %d is no dimension of S_%d", ErrFormat, b, s.read, s.n))
		return zero, false
	case s.read == 0:
		s.fail(fmt.Errorf("%w: first entry is a step", ErrFormat))
		return zero, false
	default:
		v = s.prev.SwapFirst(int(b))
	}
	if s.chunked {
		s.chunkLeft--
	}
	s.read++
	s.prev = v
	return v, true
}

// finish validates the end of a fully-read stream: the chunked formats
// must close with their zero terminator, and every format is
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
// exactly the declared number of valid vertices and ended cleanly.
func (s *StreamReader) Err() error { return s.err }
