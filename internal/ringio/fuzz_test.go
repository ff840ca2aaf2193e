package ringio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/perm"
)

// FuzzReadBinary throws arbitrary bytes at the binary decoder: it must
// never panic, and anything it accepts must re-encode to an equivalent
// ring.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	WriteBinary(&seed, 4, []perm.Code{perm.IdentityCode(4), perm.IdentityCode(4).SwapFirst(2)})
	f.Add(seed.Bytes())
	f.Add([]byte("SRG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ring, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, v := range ring {
			if !v.Valid(n) {
				t.Fatalf("decoder accepted invalid vertex at %d", i)
			}
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, n, ring); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		n2, ring2, err := ReadBinary(&out)
		if err != nil || n2 != n || len(ring2) != len(ring) {
			t.Fatalf("re-decode mismatch: %v", err)
		}
		for i := range ring {
			if ring[i] != ring2[i] {
				t.Fatalf("entry %d changed across roundtrip", i)
			}
		}
	})
}

// FuzzReadBinaryStream throws arbitrary bytes at the chunked stream
// decoder: it must never panic, anything it accepts must consist of
// valid vertices matching the declared header length, and an accepted
// stream must survive a re-encode/re-decode roundtrip.
func FuzzReadBinaryStream(f *testing.F) {
	// A step, a jump back to the first vertex (an escape) and a step.
	id := perm.IdentityCode(4)
	ring := []perm.Code{id, id.SwapFirst(2), id, id.SwapFirst(4)}
	var seed bytes.Buffer
	WriteBinaryStream(&seed, 4, len(ring), sliceNext(ring))
	f.Add(seed.Bytes())
	// The rank formats SRS2 replaced decode through the same reader.
	f.Add(legacyBytes("SRG1", 4, ring))
	f.Add(legacyBytes("SRS1", 4, ring))
	// Framing-focused seeds: bare magics, a header with no body, a
	// chunk count pointing past the declared length, and a stream cut
	// at the terminator.
	f.Add([]byte("SRS2"))
	f.Add([]byte("SRS1"))
	f.Add([]byte("SRG1"))
	f.Add([]byte{'S', 'R', 'S', '2', 4, 2})
	f.Add([]byte{'S', 'R', 'S', '1', 4, 1, 5, 0, 0, 0, 0, 0})
	f.Add(seed.Bytes()[:seed.Len()-1])
	f.Add([]byte{})
	// Entry-focused seeds: each SRS2 entry kind malformed.
	for _, d := range srs2Rejections {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := ReadBinaryStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var got []perm.Code
		for {
			v, ok := sr.Next()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if sr.Err() != nil {
			return
		}
		n := sr.N()
		if len(got) != sr.Len() {
			t.Fatalf("accepted stream delivered %d vertices, header says %d", len(got), sr.Len())
		}
		for i, v := range got {
			if !v.Valid(n) {
				t.Fatalf("decoder accepted invalid vertex at %d", i)
			}
		}
		var out bytes.Buffer
		if err := WriteBinaryStream(&out, n, len(got), sliceNext(got)); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		sr2, err := ReadBinaryStream(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		for j := 0; ; j++ {
			v, ok := sr2.Next()
			if !ok {
				if j != len(got) {
					t.Fatalf("roundtrip length changed: %d vs %d", j, len(got))
				}
				break
			}
			if v != got[j] {
				t.Fatalf("entry %d changed across roundtrip", j)
			}
		}
		if sr2.Err() != nil {
			t.Fatalf("roundtrip rejected: %v", sr2.Err())
		}
	})
}

// FuzzWriteBinaryStream drives the writer with word sequences built by
// a small program: each op byte takes a star step from the current
// word, jumps to an arbitrary rank, or loads an arbitrary raw word. The
// writer must fail exactly when some word is not a vertex of S_n;
// otherwise its bytes must have the size the format fixes and decode to
// the same words.
func FuzzWriteBinaryStream(f *testing.F) {
	f.Add(uint8(4), []byte{0, 4, 8, 1})                              // steps only
	f.Add(uint8(6), []byte{0, 2, 0x2c, 1, 0, 4, 2, 0xff, 0xff})      // steps around a jump
	f.Add(uint8(4), []byte{3, 0x10, 0x32, 0, 0, 0, 0, 0, 0, 8})      // a raw word, then a step
	f.Add(uint8(4), []byte{4, 3, 0xff, 0xff, 0xff, 0xff, 0, 0, 0})   // a raw invalid word
	f.Add(uint8(1), []byte{0, 1})                                    // S_1: one vertex
	f.Add(uint8(16), []byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 60}) // S_16
	f.Fuzz(func(t *testing.T, nb uint8, prog []byte) {
		n := int(nb-1)%perm.MaxN + 1 // nb itself when it is 1..16
		limit := min(perm.Factorial(n), 2*streamChunk)
		cur := perm.IdentityCode(n)
		var words []perm.Code
		valid := true
		for len(prog) > 0 && len(words) < limit {
			op := prog[0]
			prog = prog[1:]
			switch op % 4 {
			case 0, 1: // star step along dimension 2..n
				if n > 1 {
					cur = cur.SwapFirst(2 + int(op/4)%(n-1))
				}
			case 2: // jump to an arbitrary rank
				r, k := binary.Uvarint(prog)
				if k <= 0 {
					k = len(prog)
				}
				prog = prog[k:]
				cur = perm.UnrankCode(n, int(r%uint64(perm.Factorial(n))))
			case 3: // an arbitrary raw word
				var w [8]byte
				prog = prog[copy(w[:], prog):]
				cur = perm.Code(binary.LittleEndian.Uint64(w[:]))
			}
			words = append(words, cur)
			valid = valid && cur.Valid(n)
		}
		var out bytes.Buffer
		err := WriteBinaryStream(&out, n, len(words), sliceNext(words))
		if (err == nil) != valid {
			t.Fatalf("S_%d, %d words, all valid %v: writer err = %v", n, len(words), valid, err)
		}
		if err != nil {
			return
		}
		if out.Len() != encodedSize(n, words) {
			t.Fatalf("S_%d: %d bytes for %d words, want %d", n, out.Len(), len(words), encodedSize(n, words))
		}
		sr, err := ReadBinaryStream(&out)
		if err != nil {
			t.Fatal(err)
		}
		sameRing(t, drainStream(t, sr), words)
	})
}
