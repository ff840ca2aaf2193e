package ringio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/perm"
)

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

// drainStream reads a StreamReader to the end.
func drainStream(t *testing.T, sr *StreamReader) []perm.Code {
	t.Helper()
	var out []perm.Code
	for {
		v, ok := sr.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if err := sr.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return out
}

func TestStreamRoundtrip(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		ring := sampleRing(t, n, 1)
		var buf bytes.Buffer
		if err := WriteBinaryStream(&buf, n, len(ring), sliceNext(ring)); err != nil {
			t.Fatal(err)
		}
		sr, err := ReadBinaryStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if sr.N() != n || sr.Len() != len(ring) {
			t.Fatalf("header n=%d len=%d, want n=%d len=%d", sr.N(), sr.Len(), n, len(ring))
		}
		got := drainStream(t, sr)
		if len(got) != len(ring) {
			t.Fatalf("read %d vertices, want %d", len(got), len(ring))
		}
		for i := range got {
			if got[i] != ring[i] {
				t.Fatalf("entry %d differs", i)
			}
		}
	}
}

// TestStreamSpansChunks crosses the 4096-rank chunk boundary with a
// real ring: the fault-free S_7 Hamiltonian cycle is 5040 vertices,
// two chunks.
func TestStreamSpansChunks(t *testing.T) {
	n := 7
	long := sampleRing(t, n, 0)
	if len(long) <= streamChunk {
		t.Fatalf("test setup: %d vertices do not span a chunk", len(long))
	}
	var buf bytes.Buffer
	if err := WriteBinaryStream(&buf, n, len(long), sliceNext(long)); err != nil {
		t.Fatal(err)
	}
	sr, err := ReadBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, sr)
	if len(got) != len(long) {
		t.Fatalf("read %d vertices, want %d", len(got), len(long))
	}
}

// TestStreamReaderNextAllocs pins the reader's per-vertex step
// allocation-free once it is past its first chunk: 500 Next calls
// straddling the 4096-rank chunk boundary of an S_7 ring, chunk header
// included, allocate nothing.
func TestStreamReaderNextAllocs(t *testing.T) {
	n := 7
	ring := sampleRing(t, n, 0)
	var buf bytes.Buffer
	if err := WriteBinaryStream(&buf, n, len(ring), sliceNext(ring)); err != nil {
		t.Fatal(err)
	}
	sr, err := ReadBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; i < streamChunk-250; i++ {
		sr.Next()
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if v, ok := sr.Next(); !ok || v != ring[i] {
			t.Fatalf("entry %d: got %v, %v", i, v, ok)
		}
		i++
	}); allocs != 0 {
		t.Errorf("StreamReader.Next allocates %.2f times per vertex", allocs)
	}
}

// TestStreamReaderAcceptsLegacyBinary locks the compatibility bridge:
// an SRG1 file written by WriteBinary decodes through the streaming
// reader, so starverify works on pre-stream archives.
func TestStreamReaderAcceptsLegacyBinary(t *testing.T) {
	n := 5
	ring := sampleRing(t, n, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n, ring); err != nil {
		t.Fatal(err)
	}
	sr, err := ReadBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, sr)
	if len(got) != len(ring) {
		t.Fatalf("read %d vertices, want %d", len(got), len(ring))
	}
	for i := range got {
		if got[i] != ring[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestStreamWriterRejections(t *testing.T) {
	ring := sampleRing(t, 4, 0)

	// Producer stops short of the declared length.
	if err := WriteBinaryStream(&bytes.Buffer{}, 4, len(ring)+2, sliceNext(ring)); err == nil {
		t.Error("short producer accepted")
	}
	// Producer overruns the declared length.
	if err := WriteBinaryStream(&bytes.Buffer{}, 4, len(ring)-2, sliceNext(ring)); err == nil {
		t.Error("overlong producer accepted")
	}
	// Declared length beyond n!.
	if err := WriteBinaryStream(&bytes.Buffer{}, 4, perm.Factorial(4)+1, sliceNext(ring)); err == nil {
		t.Error("length > n! accepted")
	}
	// Invalid vertex.
	if err := WriteBinaryStream(&bytes.Buffer{}, 4, 1, sliceNext([]perm.Code{perm.None})); err == nil {
		t.Error("invalid vertex accepted")
	}
}

func TestStreamReaderRejections(t *testing.T) {
	n := 4
	ring := sampleRing(t, n, 0)
	var buf bytes.Buffer
	if err := WriteBinaryStream(&buf, n, len(ring), sliceNext(ring)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	headerErr := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), data[4:]...),
	}
	for name, d := range headerErr {
		if _, err := ReadBinaryStream(bytes.NewReader(d)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}

	// Declared length beyond n! is rejected at the header.
	var bad bytes.Buffer
	bad.Write(magicStream[:])
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], 4)
	bad.Write(tmp[:k])
	k = binary.PutUvarint(tmp[:], uint64(perm.Factorial(4)+1))
	bad.Write(tmp[:k])
	if _, err := ReadBinaryStream(&bad); !errors.Is(err, ErrFormat) {
		t.Errorf("length > n!: err = %v, want ErrFormat", err)
	}

	bodyErr := map[string][]byte{
		"truncated body":     data[:len(data)-3],
		"missing terminator": data[:len(data)-1],
		"trailing bytes":     append(append([]byte{}, data...), 7),
	}
	for name, d := range bodyErr {
		sr, err := ReadBinaryStream(bytes.NewReader(d))
		if err != nil {
			t.Errorf("%s: header rejected: %v", name, err)
			continue
		}
		for {
			if _, ok := sr.Next(); !ok {
				break
			}
		}
		if !errors.Is(sr.Err(), ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, sr.Err())
		}
	}
}

// TestLegacyHeaderLengthBound pins the header validation of
// ReadBinary on a flat file: a declared length exceeding n! must be
// rejected before any allocation sized by it.
func TestLegacyHeaderLengthBound(t *testing.T) {
	var bin bytes.Buffer
	bin.Write(magic[:])
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], 4)
	bin.Write(tmp[:k])
	k = binary.PutUvarint(tmp[:], uint64(perm.Factorial(4)+1))
	bin.Write(tmp[:k])
	if _, _, err := ReadBinary(&bin); !errors.Is(err, ErrFormat) {
		t.Errorf("ReadBinary length > n!: err = %v, want ErrFormat", err)
	}
}
