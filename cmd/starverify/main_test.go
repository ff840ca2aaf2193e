package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/ringio"
)

// writeLegacyRing embeds a fault-free S_n ring and persists it, from
// its ranks, in one of the rank formats files were saved in before
// SRS2, which starverify still decodes: the magic ("SRG1" flat or
// "SRS1" chunked), uvarint n and length, then a uvarint rank per
// vertex, SRS1's in chunks of 4096 closed by a zero terminator.
func writeLegacyRing(t *testing.T, n int, magic string) string {
	t.Helper()
	plan, err := core.Embed(n, faults.NewSet(n), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ring := plan.Ring()
	data := binary.AppendUvarint([]byte(magic), uint64(n))
	data = binary.AppendUvarint(data, uint64(len(ring)))
	for i, v := range ring {
		if magic == "SRS1" && i%4096 == 0 {
			data = binary.AppendUvarint(data, uint64(min(4096, len(ring)-i)))
		}
		data = binary.AppendUvarint(data, uint64(v.Rank(n)))
	}
	if magic == "SRS1" {
		data = append(data, 0)
	}
	path := filepath.Join(t.TempDir(), "ring."+strings.ToLower(magic))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeStreamRing persists the same fault-free S_n ring in the SRS2
// format starring -save writes, straight from the plan's cursor.
func writeStreamRing(t *testing.T, n int) string {
	t.Helper()
	plan, err := core.Embed(n, faults.NewSet(n), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.srs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ringio.WriteBinaryStream(f, n, plan.RingLen(), plan.Cursor().Next); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunVerdicts(t *testing.T) {
	ring := writeLegacyRing(t, 4, "SRG1")
	ranks := writeLegacyRing(t, 4, "SRS1")
	sring := writeStreamRing(t, 4)
	garbage := filepath.Join(t.TempDir(), "garbage.srg")
	if err := os.WriteFile(garbage, []byte("not a ring"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stream cut mid-body: valid header, missing ranks and terminator.
	whole, err := os.ReadFile(sring)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "trunc.srs")
	if err := os.WriteFile(truncated, whole[:len(whole)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // required substring, "" = must be empty
		stderr string
	}{
		{"ok", []string{"-ring", ring}, 0, "starverify: ok", ""},
		{"ok quiet", []string{"-ring", ring, "-q"}, 0, "", ""},
		{"minlen satisfied", []string{"-ring", ring, "-minlen", "24"}, 0, "min length 24 satisfied", ""},
		{"rejected: fault on ring", []string{"-ring", ring, "-fv", "1234"}, 1, "", "REJECTED"},
		{"rejected quiet", []string{"-ring", ring, "-fv", "1234", "-q"}, 1, "", ""},
		{"rejected: minlen too high", []string{"-ring", ring, "-minlen", "25"}, 1, "", "REJECTED"},
		{"stream ok", []string{"-ring", sring}, 0, "starverify: ok", ""},
		{"stream ok legacy format", []string{"-ring", ring}, 0, "S_4 ring of 24 vertices", ""},
		{"stream ok SRS1 format", []string{"-ring", ranks, "-minlen", "24"}, 0, "S_4 ring of 24 vertices", ""},
		{"stream minlen satisfied", []string{"-ring", sring, "-minlen", "24"}, 0, "min length 24 satisfied", ""},
		{"stream rejected: fault on ring", []string{"-ring", sring, "-fv", "1234"}, 1, "", "REJECTED"},
		{"stream rejected: minlen too high", []string{"-ring", sring, "-minlen", "25"}, 1, "", "REJECTED"},
		{"stream truncated file", []string{"-ring", truncated}, 2, "", "starverify:"},
		{"stream corrupt file", []string{"-ring", garbage}, 2, "", "starverify:"},
		{"missing -ring", nil, 2, "", "need -ring"},
		{"missing file", []string{"-ring", filepath.Join(t.TempDir(), "nope.srg")}, 2, "", "starverify:"},
		{"corrupt file", []string{"-ring", garbage}, 2, "", "starverify:"},
		{"bad flag", []string{"-wat"}, 2, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if code := run(tc.args, &out, &errw); code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.code, errw.String())
			}
			if tc.stdout == "" && out.Len() != 0 {
				t.Errorf("unexpected stdout: %q", out.String())
			}
			if tc.stdout != "" && !strings.Contains(out.String(), tc.stdout) {
				t.Errorf("stdout %q missing %q", out.String(), tc.stdout)
			}
			if tc.stderr != "" && !strings.Contains(errw.String(), tc.stderr) {
				t.Errorf("stderr %q missing %q", errw.String(), tc.stderr)
			}
		})
	}
}

// TestRunShortRingAtS16 verifies a 6-cycle of S_16 saved in SRS2 (15
// bytes) and holds the whole run, decode and verification, to 1 MiB of
// allocation: the verifier's memory follows the vertices fed, not 16!.
func TestRunShortRingAtS16(t *testing.T) {
	const n = 16
	v := perm.IdentityCode(n)
	hexagon := []perm.Code{v}
	for _, d := range []int{2, 3, 2, 3, 2} {
		v = v.SwapFirst(d)
		hexagon = append(hexagon, v)
	}
	path := filepath.Join(t.TempDir(), "hexagon.srs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() (perm.Code, bool) {
		if i == len(hexagon) {
			return 0, false
		}
		i++
		return hexagon[i-1], true
	}
	if err := ringio.WriteBinaryStream(f, n, len(hexagon), next); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := run([]string{"-ring", path, "-minlen", "6"}, &out, &errw)
	runtime.ReadMemStats(&after)
	if code != 0 || !strings.Contains(out.String(), "S_16 ring of 6 vertices") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errw.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("starverify on a 6-cycle of S_16 allocated %d bytes, want <= %d", got, 1<<20)
	}
}
