package ringio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/perm"
)

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

// sameRing fails the test unless got is want, vertex for vertex.
func sameRing(t *testing.T, got, want []perm.Code) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d vertices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d is %#v, want %#v", i, got[i], want[i])
		}
	}
}

// legacyBytes encodes ring, from its ranks, in one of the rank formats
// SRS2 replaced: the magic ("SRG1" or "SRS1"), uvarint n and length,
// then a uvarint rank per vertex; SRS1 chunks the ranks at 4096 and
// closes with a zero terminator.
func legacyBytes(magic string, n int, ring []perm.Code) []byte {
	out := binary.AppendUvarint([]byte(magic), uint64(n))
	out = binary.AppendUvarint(out, uint64(len(ring)))
	for i, v := range ring {
		if magic == "SRS1" && i%4096 == 0 {
			out = binary.AppendUvarint(out, uint64(min(4096, len(ring)-i)))
		}
		out = binary.AppendUvarint(out, uint64(v.Rank(n)))
	}
	if magic == "SRS1" {
		out = append(out, 0)
	}
	return out
}

// srs2Rejections are SRS2 streams of S_4 whose header is sound and
// whose entries are not; each is also a FuzzReadBinaryStream seed.
var srs2Rejections = map[string][]byte{
	"step as first entry": []byte("SRS2\x04\x01\x01\x02\x00"),
	"step byte 1":         []byte("SRS2\x04\x02\x02\x00\x00\x01\x00"),
	"step byte n+1":       []byte("SRS2\x04\x02\x02\x00\x00\x05\x00"),
	"escaped rank n!":     []byte("SRS2\x04\x01\x01\x00\x18\x00"),
	"cut after escape":    []byte("SRS2\x04\x01\x01\x00"),
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
		sameRing(t, drainStream(t, sr), ring)
	}
}

// TestStreamSpansChunks crosses the 4096-entry chunk boundary with a
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
	if buf.Len() != encodedSize(n, long) {
		t.Fatalf("%d bytes for %d vertices, want %d", buf.Len(), len(long), encodedSize(n, long))
	}
	sr, err := ReadBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameRing(t, drainStream(t, sr), long)
}

// TestStreamReaderNextAllocs pins the reader's per-vertex step
// allocation-free once it is past its first chunk: 500 Next calls
// straddling the 4096-entry chunk boundary of an S_7 ring, chunk header
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
// SRG1 and SRS1 files, the rank formats written before SRS2, decode
// vertex for vertex through the streaming reader, SRS1 across a chunk
// boundary (the fault-free S_7 ring is 5040 vertices), so starverify
// works on old archives.
func TestStreamReaderAcceptsLegacyBinary(t *testing.T) {
	n := 7
	ring := sampleRing(t, n, 0)
	for _, magic := range []string{"SRG1", "SRS1"} {
		sr, err := ReadBinaryStream(bytes.NewReader(legacyBytes(magic, n, ring)))
		if err != nil {
			t.Fatalf("%s: %v", magic, err)
		}
		if sr.N() != n || sr.Len() != len(ring) {
			t.Fatalf("%s: header n=%d len=%d, want n=%d len=%d", magic, sr.N(), sr.Len(), n, len(ring))
		}
		sameRing(t, drainStream(t, sr), ring)
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
	// Invalid words: first, after a valid vertex (an escape), and one
	// star step from a valid vertex but along dimension n+1.
	v := perm.IdentityCode(4).SwapFirst(2)
	for name, seq := range map[string][]perm.Code{
		"invalid first vertex":      {perm.None},
		"invalid after valid":       {v, perm.None},
		"step beyond the dimension": {v, v.SwapFirst(5)},
	} {
		if err := WriteBinaryStream(&bytes.Buffer{}, 4, len(seq), sliceNext(seq)); err == nil {
			t.Errorf("%s accepted", name)
		}
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
	for name, d := range srs2Rejections {
		bodyErr[name] = d
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
	bin.Write(magicFlat[:])
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], 4)
	bin.Write(tmp[:k])
	k = binary.PutUvarint(tmp[:], uint64(perm.Factorial(4)+1))
	bin.Write(tmp[:k])
	if _, _, err := ReadBinary(&bin); !errors.Is(err, ErrFormat) {
		t.Errorf("ReadBinary length > n!: err = %v, want ErrFormat", err)
	}
}
