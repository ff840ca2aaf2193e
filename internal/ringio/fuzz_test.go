package ringio

import (
	"bytes"
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
	ring := []perm.Code{perm.IdentityCode(4), perm.IdentityCode(4).SwapFirst(2)}
	next := func() func() (perm.Code, bool) {
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
	var seed bytes.Buffer
	WriteBinaryStream(&seed, 4, len(ring), next())
	f.Add(seed.Bytes())
	// The legacy flat format decodes through the same reader.
	var legacy bytes.Buffer
	WriteBinary(&legacy, 4, ring)
	f.Add(legacy.Bytes())
	// Framing-focused seeds: bare magics, a header with no body, a
	// chunk count pointing past the declared length, and a stream cut
	// at the terminator.
	f.Add([]byte("SRS1"))
	f.Add([]byte("SRG1"))
	f.Add([]byte{'S', 'R', 'S', '1', 4, 2})
	f.Add([]byte{'S', 'R', 'S', '1', 4, 1, 5, 0, 0, 0, 0, 0})
	f.Add(seed.Bytes()[:seed.Len()-1])
	f.Add([]byte{})
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
		i := 0
		var out bytes.Buffer
		err = WriteBinaryStream(&out, n, len(got), func() (perm.Code, bool) {
			if i >= len(got) {
				var zero perm.Code
				return zero, false
			}
			v := got[i]
			i++
			return v, true
		})
		if err != nil {
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
