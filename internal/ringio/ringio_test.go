package ringio

import (
	"bytes"
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

// TestBinaryRoundtrip reads back, through ReadBinary, rings written in
// both formats: flat by WriteBinary and chunked by WriteBinaryStream.
func TestBinaryRoundtrip(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		ring := sampleRing(t, n, 1)
		var flat, chunked bytes.Buffer
		if err := WriteBinary(&flat, n, ring); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinaryStream(&chunked, n, len(ring), sliceNext(ring)); err != nil {
			t.Fatal(err)
		}
		for _, buf := range []*bytes.Buffer{&flat, &chunked} {
			gotN, got, err := ReadBinary(buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != n || len(got) != len(ring) {
				t.Fatalf("n=%d len=%d, want n=%d len=%d", gotN, len(got), n, len(ring))
			}
			for i := range got {
				if got[i] != ring[i] {
					t.Fatalf("entry %d differs", i)
				}
			}
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

func TestBinaryCompactness(t *testing.T) {
	n := 6
	ring := sampleRing(t, n, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n, ring); err != nil {
		t.Fatal(err)
	}
	// Ranks below 720 need at most 2 varint bytes: the encoding must
	// beat 8-byte raw codes comfortably.
	if buf.Len() > len(ring)*2+16 {
		t.Fatalf("binary encoding too large: %d bytes for %d vertices", buf.Len(), len(ring))
	}
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
