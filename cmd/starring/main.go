// Command starring embeds one fault-free ring instance and reports it.
//
// Usage:
//
//	starring -n 6 -fv 213456,312456                 # explicit faults
//	starring -n 7 -random 4 -seed 1                 # random faults
//	starring -n 6 -fe "123456-213456"               # an edge fault
//	starring -n 6 -random 3 -algo tseng             # run a baseline
//	starring -n 6 -random 3 -print                  # dump the ring
//	starring -n 10 -random 7 -save ring.srs         # persist the ring
//	starring -n 7 -faults 4 -metrics-json m.json    # dump run telemetry
//
// The paper algorithm keeps its ring in skeleton form at O(#blocks)
// memory: verification, -print and -save all stream it through a
// block cursor, so n >= 10 (3.6M+ vertices) never materializes. -save
// writes the chunked ringio stream format that starverify reads.
//
// -debug-addr serves expvar (/debug/vars, registry "starring"),
// pprof (/debug/pprof/) and an OpenMetrics endpoint (/metrics) while
// the run lasts; -metrics-json leaves a machine-readable record of
// per-phase durations, junction backtracks and routed blocks (see
// the README's Observability section).
// Spans and log lines go to one flight recorder, a ring of the most
// recent 1024 entries: the -metrics-json events are its spans, and
// -events-out streams every log line (core.embed, core.repair, ...) to
// a file as NDJSON the moment it is recorded; -hold keeps the process
// (and its debug server) alive for the given duration after the run so
// an external scraper can pull /metrics.
//
// -flight-dump keeps the flight recorder's bundle: the ring's log
// lines, its spans as a Chrome trace_event JSON file loadable in
// Perfetto (flight-trace.json) and a metrics snapshot land in the given
// directory at exit — and immediately on an embed error, so a failed
// run still leaves its post-mortem (render it with starmon -postmortem;
// the live form is served at /debug/flight as a tar).
//
// -cpuprofile captures a CPU profile whose samples carry phase labels
// (phase=embed, phase=splice, ...) — `go tool pprof -tagfocus
// phase=embed` isolates one pipeline phase; -memprofile writes a
// post-run heap profile. When any telemetry flag enables the
// registry, a prof.RuntimeSampler also publishes runtime_* gauges
// (heap, GC pauses, goroutines, scheduling latency) every second.
//
// The embedded ring is always verified, once, by the library before it
// is returned; the command exits nonzero on any failure.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs/export"
	"repro/internal/perm"
	"repro/internal/ringio"
)

func main() {
	var (
		n       = flag.Int("n", 6, "star-graph dimension (>= 3)")
		fv      = flag.String("fv", "", "comma-separated faulty vertices, e.g. 213456,312456")
		fe      = flag.String("fe", "", "comma-separated faulty edges as u-v pairs, e.g. 123456-213456")
		random  = flag.Int("random", 0, "add this many uniformly random vertex faults")
		faultsN = flag.Int("faults", 0, "alias of -random: add this many uniformly random vertex faults")
		seed    = flag.Int64("seed", 1, "seed for -random/-faults")
		algo    = flag.String("algo", "paper", "paper | tseng | latifi")
		pathSrc = flag.String("path-from", "", "embed a longest s-t path instead of a ring: source vertex")
		pathDst = flag.String("path-to", "", "path mode: target vertex")
		print   = flag.Bool("print", false, "print the full ring, one vertex per line")
		save    = flag.String("save", "", "write the ring to this file (chunked binary ringio stream format)")
		best    = flag.Bool("best-effort", false, "accept fault sets beyond the n-3 budget (no guarantee)")

		debugAddr   = flag.String("debug-addr", "", "serve expvar, pprof and /metrics on this address (e.g. localhost:6060)")
		metricsJSON = flag.String("metrics-json", "", "write the run's metrics as JSON to this file")
		eventsOut   = flag.String("events-out", "", "write structured NDJSON events to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a phase-labeled CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a post-run heap profile to this file")
		flightDump  = flag.String("flight-dump", "", "write the flight-recorder post-mortem bundle to this directory (on error and at exit)")
		hold        = flag.Duration("hold", 0, "keep the process alive this long after the run (for /metrics scrapers)")
	)
	flag.Parse()

	// Validate before drawing faults: an out-of-range dimension would
	// panic the generator, and more distinct faults than S_n has
	// vertices would never finish drawing.
	if *n < 3 || *n > perm.MaxN {
		fatal(fmt.Errorf("-n %d out of range [3,%d]", *n, perm.MaxN))
	}
	if *random < 0 || *faultsN < 0 {
		fatal(fmt.Errorf("-random/-faults %d is negative", min(*random, *faultsN)))
	}
	k := *random + *faultsN
	if order := perm.Factorial(*n); k > order {
		fatal(fmt.Errorf("-random/-faults %d exceeds the %d vertices of S_%d", k, order, *n))
	}
	pathMode := *pathSrc != "" || *pathDst != ""
	if pathMode && *save != "" {
		fatal(fmt.Errorf("-save writes rings; path mode has no save"))
	}
	if pathMode && *algo != "paper" {
		fatal(fmt.Errorf("-algo %s embeds rings; path mode runs the paper construction only", *algo))
	}

	fs := faults.NewSet(*n)
	if *fv != "" {
		for _, s := range strings.Split(*fv, ",") {
			if err := fs.AddVertexString(strings.TrimSpace(s)); err != nil {
				fatal(err)
			}
		}
	}
	if *fe != "" {
		for _, s := range strings.Split(*fe, ",") {
			if err := fs.AddEdgeString(strings.TrimSpace(s)); err != nil {
				fatal(err)
			}
		}
	}
	if k > 0 {
		rng := rand.New(rand.NewSource(*seed))
		for _, v := range faults.RandomVertices(*n, k, rng).Vertices() {
			fs.AddVertex(v)
		}
	}

	tel, err := export.StartSession(export.SessionConfig{
		Name: "starring", DebugAddr: *debugAddr, MetricsJSON: *metricsJSON, EventsOut: *eventsOut,
		FlightDump: *flightDump, CPUProfile: *cpuProfile, MemProfile: *memProfile, Hold: *hold,
	}, os.Stdout)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{BestEffort: *best, Obs: tel.Registry()}

	var (
		ring      ringSource
		ringLen   int
		guarantee int
		extra     string
	)
	switch {
	case pathMode:
		ring = runPathMode(*n, fs, *pathSrc, *pathDst, cfg)
	case *algo == "paper":
		eng, err := core.NewEmbedder(*n, cfg)
		if err != nil {
			fatal(err)
		}
		plan, err := eng.Embed(fs)
		if err != nil {
			fatal(err)
		}
		res := plan.Result()
		ring, ringLen, guarantee = func() func() (perm.Code, bool) { return plan.Cursor().Next }, res.Len(), res.Guarantee
		extra = fmt.Sprintf("blocks=%d faulty-blocks=%d positions=%v upper-bound=%d",
			res.Blocks, res.FaultyBlocks, res.Positions, res.UpperBound)
	case *algo == "tseng":
		res, err := baseline.Tseng(*n, fs, cfg)
		if err != nil {
			fatal(err)
		}
		ring, ringLen, guarantee = sliceSource(res.Ring), len(res.Ring), res.Guarantee
	case *algo == "latifi":
		res, err := baseline.Latifi(*n, fs, cfg)
		if err != nil {
			fatal(err)
		}
		ring, ringLen, guarantee = sliceSource(res.Ring), len(res.Ring), res.Guarantee
		extra = fmt.Sprintf("cluster=%v m=%d", res.Cluster, res.M)
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}
	// Every algorithm has already verified its ring in one pass with
	// check.RingStream before returning it: the paper algorithm over a
	// cursor replaying its skeleton (emitted count included), the
	// baselines over their slices. verified=ok reports that verdict.
	if !pathMode {
		fmt.Printf("S_%d: %d vertices, |Fv|=%d, |Fe|=%d\n", *n, perm.Factorial(*n), fs.NumVertices(), fs.NumEdges())
		fmt.Printf("algorithm=%s ring length=%d guarantee=%d verified=ok\n", *algo, ringLen, guarantee)
	}
	if extra != "" {
		fmt.Println(extra)
	}
	if *print {
		w := bufio.NewWriter(os.Stdout)
		line := make([]byte, 0, *n+1)
		for next := ring(); ; {
			v, ok := next()
			if !ok {
				break
			}
			line = append(v.AppendN(line[:0], *n), '\n')
			if _, err := w.Write(line); err != nil {
				fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		// Chunked stream format: the ring goes to disk one block at a
		// time, so an n=10 save holds 3.6M vertices on disk but never in
		// memory.
		if err := ringio.WriteBinaryStream(f, *n, ringLen, ring()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %d-vertex ring to %s\n", ringLen, *save)
	}
	if err := tel.Close(); err != nil {
		fatal(err)
	}
}

// ringSource opens a fresh pass over the embedded ring: a plan cursor
// for the paper algorithm, a slice walk for the baselines.
type ringSource func() func() (perm.Code, bool)

func sliceSource(ring []perm.Code) ringSource {
	return func() func() (perm.Code, bool) {
		i := 0
		return func() (perm.Code, bool) {
			if i >= len(ring) {
				return 0, false
			}
			i++
			return ring[i-1], true
		}
	}
}

// runPathMode embeds a longest s-t path, prints its header line and
// returns the path as a ring source for -print.
func runPathMode(n int, fs *faults.Set, from, to string, cfg core.Config) ringSource {
	parseV := func(str string) perm.Code {
		v, err := perm.ParseCode(str, n)
		if err != nil {
			fatal(fmt.Errorf("%q is not a vertex of S_%d", str, n))
		}
		return v
	}
	if from == "" || to == "" {
		fatal(fmt.Errorf("path mode needs both -path-from and -path-to"))
	}
	s, t := parseV(from), parseV(to)
	// EmbedPath verifies the path with check.PathStream before returning
	// it; verified=ok reports that verdict.
	plan, err := core.EmbedPath(n, fs, s, t, cfg)
	if err != nil {
		fatal(err)
	}
	side := "different partite sets"
	if s.Parity(n) == t.Parity(n) {
		side = "same partite set"
	}
	fmt.Printf("S_%d longest path %s -> %s (%s): %d vertices (guarantee %d) verified=ok\n",
		n, s.StringN(n), t.StringN(n), side, plan.RingLen(), plan.Result().Guarantee)
	return func() func() (perm.Code, bool) { return plan.Cursor().Next }
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starring:", err)
	os.Exit(1)
}
