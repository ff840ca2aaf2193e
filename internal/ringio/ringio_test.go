package ringio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
)

func sampleRing(t *testing.T, n, k int) []perm.Code {
	t.Helper()
	fs := faults.NewSet(n)
	if k > 0 {
		fs.AddVertexString("213456"[:n])
	}
	plan, err := core.Embed(n, fs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Ring()
}

// TestBinaryRoundtrip reads back, through ReadBinary, rings written by
// WriteBinary at the exact SRS2 size: a whole ring, and one with a
// vertex dropped mid-ring, whose two sides are not adjacent and so
// meet at an escape.
func TestBinaryRoundtrip(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		ring := sampleRing(t, n, 1)
		mid := len(ring) / 2
		jumped := append(append([]perm.Code{}, ring[:mid]...), ring[mid+1:]...)
		for _, seq := range [][]perm.Code{ring, jumped} {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, n, seq); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != encodedSize(n, seq) {
				t.Fatalf("n=%d: %d bytes for %d vertices, want %d", n, buf.Len(), len(seq), encodedSize(n, seq))
			}
			gotN, got, err := ReadBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != n {
				t.Fatalf("n=%d, want %d", gotN, n)
			}
			sameRing(t, got, seq)
		}
	}
}

func TestBinaryRejections(t *testing.T) {
	ring := sampleRing(t, 4, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, 4, ring); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("XXXX"), data[4:]...),
		"truncated":      data[:len(data)-2],
		"trailing bytes": append(append([]byte{}, data...), 0),
		// n=16 declaring ~3e10 entries, then none: must fail as
		// truncated, not reserve the declared length up front.
		"length beyond memory": []byte("SRG1\x10\xf1\xf1\xf1\xf1\xf1\x00"),
	}
	for name, d := range cases {
		if _, _, err := ReadBinary(bytes.NewReader(d)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}

	// Out-of-range rank.
	var bad bytes.Buffer
	bad.Write([]byte("SRG1"))
	bad.Write([]byte{4, 1})       // n=4, len=1
	bad.Write([]byte{0x80, 0x02}) // varint 256 >= 24
	if _, _, err := ReadBinary(&bad); !errors.Is(err, ErrFormat) {
		t.Errorf("oversized rank: %v", err)
	}

	// Invalid vertex on write.
	if err := WriteBinary(&bytes.Buffer{}, 4, []perm.Code{perm.None}); err == nil {
		t.Error("invalid vertex written")
	}
}

// TestBinaryCompactness pins the exact size of a written ring: the
// header, one escape for the first vertex, one byte for every other
// vertex, the chunk counts and the terminator. A writer that escapes
// an adjacent vertex fails it.
func TestBinaryCompactness(t *testing.T) {
	n := 6
	ring := sampleRing(t, n, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n, ring); err != nil {
		t.Fatal(err)
	}
	// 720 vertices: one chunk.
	want := len(magicStream) + uvarintLen(uint64(n)) + uvarintLen(uint64(len(ring))) +
		1 + uvarintLen(uint64(ring[0].Rank(n))) + len(ring) - 1 +
		uvarintLen(uint64(len(ring))) + 1
	if buf.Len() != want {
		t.Fatalf("%d bytes for %d vertices, want %d", buf.Len(), len(ring), want)
	}
}

// encodedSize is the SRS2 size of seq, entry by entry: one byte for a
// vertex adjacent to its predecessor, an escape byte and a uvarint
// rank for any other, plus the header, chunk counts and terminator.
func encodedSize(n int, seq []perm.Code) int {
	size := len(magicStream) + uvarintLen(uint64(n)) + uvarintLen(uint64(len(seq))) + 1
	for i, v := range seq {
		if i%streamChunk == 0 {
			size += uvarintLen(uint64(min(streamChunk, len(seq)-i)))
		}
		size++
		if i == 0 || !perm.Adjacent(seq[i-1], v, n) {
			size += uvarintLen(uint64(v.Rank(n)))
		}
	}
	return size
}

func uvarintLen(x uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], x)
}

func BenchmarkWriteBinary(b *testing.B) {
	ring := benchRing(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, 6, ring); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	ring := benchRing(b)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, 6, ring); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRing(b *testing.B) []perm.Code {
	b.Helper()
	plan, err := core.Embed(6, nil, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return plan.Ring()
}
