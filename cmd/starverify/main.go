// Command starverify validates a persisted ring embedding against a
// fault set: structure (simple, closed, adjacency over real star-graph
// edges), healthiness, and an optional minimum length. It is the
// trust-nothing gate a scheduler runs before mapping a job onto a
// stored embedding.
//
// Usage:
//
//	starring -n 6 -random 3 -save ring.srs
//	starverify -ring ring.srs -fv <faults> [-minlen 714]
//
// The ring is decoded and checked one vertex at a time through
// check.RingStream (distinctness via a paged bitset over S_n whose
// pages are allocated as vertices touch them), so a
// multi-million-vertex file never has to fit in RAM, and a short ring
// of a large S_n costs a few KiB. The SRS2 format
// starring -save writes (one star-step byte per vertex) and the two
// rank formats files were saved in before it, chunked SRS1 and flat
// SRG1, are all accepted.
//
// Exit status 0 means the embedding is safe to use, 1 that the ring was
// rejected, and 2 that the ring could not be loaded (missing/corrupt
// file, bad flags).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/ringio"
	"repro/internal/star"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: it parses args, loads and verifies the
// ring, and returns the process exit code (0 ok, 1 rejected, 2 load or
// usage failure).
func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("starverify", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		ringPath = fset.String("ring", "", "ring file written by starring -save (ringio SRS2, or the older SRS1 or SRG1)")
		fv       = fset.String("fv", "", "comma-separated faulty vertices to verify against")
		minLen   = fset.Int("minlen", 0, "required minimum ring length (0 = structure only)")
		quiet    = fset.Bool("q", false, "suppress output; report via exit status only")
	)
	if err := fset.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "starverify:", err)
		return 2
	}
	if *ringPath == "" {
		return fail(fmt.Errorf("need -ring"))
	}
	f, err := os.Open(*ringPath)
	if err != nil {
		return fail(err)
	}
	defer f.Close()

	sr, err := ringio.ReadBinaryStream(f)
	if err != nil {
		return fail(err)
	}
	n := sr.N()

	fs := faults.NewSet(n)
	if *fv != "" {
		for _, s := range strings.Split(*fv, ",") {
			if err := fs.AddVertexString(strings.TrimSpace(s)); err != nil {
				return fail(err)
			}
		}
	}

	// Decode and check fused vertex-by-vertex: the file is rejected on
	// the first structural or format error without ever holding the
	// cycle.
	_, verr := check.RingStream(star.New(n), sr.Next, fs, *minLen)
	if rerr := sr.Err(); rerr != nil {
		// A decode failure surfaces to the stream checker as a short
		// ring, but the root cause (truncation, bad rank) is the loader's
		// verdict: exit 2 like any other corrupt file.
		return fail(rerr)
	}
	if verr != nil {
		if !*quiet {
			fmt.Fprintf(stderr, "starverify: REJECTED: %v\n", verr)
		}
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stdout, "starverify: ok — S_%d ring of %d vertices, %d faults avoided, min length %d satisfied\n",
			n, sr.Len(), fs.NumVertices(), *minLen)
	}
	return 0
}
