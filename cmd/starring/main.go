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
// per-phase durations, S4 cache activity and junction backtracks (see
// the README's Observability section).
// Spans and log lines go to one flight recorder, a ring of the most
// recent 1024 entries: -trace-out writes its spans as a Chrome
// trace_event JSON file loadable in Perfetto, the -metrics-json events
// are its spans too, and -events-out streams every log line (core.embed,
// core.repair, ...) to a file as NDJSON the moment it is recorded;
// -hold keeps the process (and its debug server) alive for the given
// duration after the run so an external scraper can pull /metrics.
//
// -flight-dump keeps the flight recorder's bundle: the ring's log
// lines and spans and a metrics snapshot land in the given directory
// at exit — and immediately on an embed error, so a failed run still
// leaves its post-mortem (render it with starmon -postmortem; the live
// form is served at /debug/flight as a tar).
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
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/prof"
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
		traceOut    = flag.String("trace-out", "", "write the run's spans as Chrome trace_event JSON (Perfetto) to this file")
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
	k := *random + *faultsN
	if order := perm.Factorial(*n); k > order {
		fatal(fmt.Errorf("-random/-faults %d exceeds the %d vertices of S_%d", k, order, *n))
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
			uv := strings.SplitN(strings.TrimSpace(s), "-", 2)
			if len(uv) != 2 {
				fatal(fmt.Errorf("bad edge %q, want u-v", s))
			}
			u, err := perm.Parse(uv[0])
			if err != nil {
				fatal(err)
			}
			v, err := perm.Parse(uv[1])
			if err != nil {
				fatal(err)
			}
			if err := fs.AddEdge(perm.Pack(u), perm.Pack(v)); err != nil {
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

	tel := startTelemetry(*debugAddr, *metricsJSON, *traceOut, *eventsOut, *cpuProfile, *memProfile, *flightDump, *hold)

	cfg := core.Config{BestEffort: *best, Obs: tel.reg}

	if *pathSrc != "" || *pathDst != "" {
		runPathMode(*n, fs, *pathSrc, *pathDst, cfg, *print)
		tel.finish()
		return
	}
	var (
		ring      ringSource
		ringLen   int
		guarantee int
		extra     string
	)
	switch *algo {
	case "paper":
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
	case "tseng":
		res, err := baseline.Tseng(*n, fs, cfg)
		if err != nil {
			fatal(err)
		}
		ring, ringLen, guarantee = sliceSource(res.Ring), len(res.Ring), res.Guarantee
	case "latifi":
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
	fmt.Printf("S_%d: %d vertices, |Fv|=%d, |Fe|=%d\n", *n, perm.Factorial(*n), fs.NumVertices(), fs.NumEdges())
	fmt.Printf("algorithm=%s ring length=%d guarantee=%d verified=ok\n", *algo, ringLen, guarantee)
	if extra != "" {
		fmt.Println(extra)
	}
	if *print {
		w := bufio.NewWriter(os.Stdout)
		for next := ring(); ; {
			v, ok := next()
			if !ok {
				break
			}
			fmt.Fprintln(w, v.StringN(*n))
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
	tel.finish()
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

// telemetry bundles the run's optional instrumentation: the registry
// wired into the embedder, the flight recorder whose ring backs
// -trace-out, -events-out and -flight-dump, and the debug server.
type telemetry struct {
	reg    *obs.Registry
	flight *obs.FlightRecorder
	events *os.File
	srv    *obs.DebugServer

	cpuStop func() error
	rtStop  func()

	metricsJSON, traceOut  string
	cpuProfile, memProfile string
	flightDump             string
	hold                   time.Duration
}

// startTelemetry wires up whatever the flags asked for; with no
// telemetry flags set the zero handle is inert and finish is a no-op.
func startTelemetry(debugAddr, metricsJSON, traceOut, eventsOut, cpuProfile, memProfile, flightDump string, hold time.Duration) *telemetry {
	t := &telemetry{metricsJSON: metricsJSON, traceOut: traceOut,
		cpuProfile: cpuProfile, memProfile: memProfile,
		flightDump: flightDump, hold: hold}
	if cpuProfile != "" {
		stop, err := prof.StartCPUProfile(cpuProfile)
		if err != nil {
			fatal(err)
		}
		t.cpuStop = stop
	}
	if debugAddr == "" && metricsJSON == "" && traceOut == "" && eventsOut == "" && flightDump == "" {
		return t
	}
	t.reg = obs.NewRegistry()
	t.reg.PublishExpvar("starring")
	// Runtime health (heap, GC, scheduler) sampled alongside the
	// algorithm metrics, so /metrics scrapes and the -metrics-json dump
	// carry the runtime_* gauges too.
	t.rtStop = prof.NewRuntimeSampler(t.reg).Start(time.Second)
	var w io.Writer
	if eventsOut != "" {
		f, err := os.Create(eventsOut)
		if err != nil {
			fatal(err)
		}
		t.events = f
		w = f
	}
	// The flight recorder is always on once telemetry is: its ring of
	// recent spans and log lines backs -trace-out and /debug/flight, it
	// streams log lines to -events-out, and an embed/repair error
	// auto-dumps the post-mortem bundle when -flight-dump is set.
	t.flight = obs.NewFlightRecorder(t.reg, 1024, w, obs.LevelDebug)
	if flightDump != "" {
		t.flight.SetAutoDump(flightDump, export.FlightBundleWriter(t.flight))
	}
	if debugAddr != "" {
		srv, err := obs.StartDebugServer(debugAddr)
		if err != nil {
			fatal(err)
		}
		srv.Handle("/metrics", export.MetricsHandler(t.reg))
		srv.Handle("/debug/flight", export.FlightHandler(t.flight))
		t.srv = srv
		fmt.Printf("debug server listening on http://%s/debug/vars (pprof under /debug/pprof/, OpenMetrics under /metrics)\n", srv.Addr())
	}
	return t
}

// finish writes the requested artifacts, then honors -hold so an
// external scraper can still reach the debug server afterwards.
func (t *telemetry) finish() {
	// Stop the CPU profile before -hold so idle scraping time is not
	// profiled alongside the run.
	if t.cpuStop != nil {
		if err := t.cpuStop(); err != nil {
			fatal(err)
		}
		fmt.Printf("cpu profile written to %s\n", t.cpuProfile)
	}
	if t.memProfile != "" {
		if err := prof.WriteHeapProfile(t.memProfile); err != nil {
			fatal(err)
		}
		fmt.Printf("heap profile written to %s\n", t.memProfile)
	}
	if t.reg != nil {
		if t.rtStop != nil {
			// stop takes a final sample, so the JSON dump below reflects
			// end-of-run runtime state even for sub-second runs.
			t.rtStop()
		}
		if t.metricsJSON != "" {
			if err := t.reg.WriteJSONFile(t.metricsJSON); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics written to %s\n", t.metricsJSON)
		}
		if t.traceOut != "" {
			if err := export.WriteTraceFile(t.traceOut, t.flight.SpanEvents()); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written to %s\n", t.traceOut)
		}
		if t.flightDump != "" {
			if err := t.flight.Dump(t.flightDump, export.FlightBundleWriter(t.flight)); err != nil {
				fatal(err)
			}
			fmt.Printf("flight bundle written to %s\n", t.flightDump)
		}
		if t.events != nil {
			if err := t.events.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if t.hold > 0 {
		fmt.Printf("holding for %v\n", t.hold)
		time.Sleep(t.hold)
	}
	if t.srv != nil {
		t.srv.Close()
	}
}

// runPathMode embeds and reports a longest s-t path.
func runPathMode(n int, fs *faults.Set, from, to string, cfg core.Config, printAll bool) {
	parseV := func(str string) perm.Code {
		p, err := perm.Parse(str)
		if err != nil || p.N() != n {
			fatal(fmt.Errorf("%q is not a vertex of S_%d", str, n))
		}
		return perm.Pack(p)
	}
	if from == "" || to == "" {
		fatal(fmt.Errorf("path mode needs both -path-from and -path-to"))
	}
	s, t := parseV(from), parseV(to)
	// EmbedPath verifies the path with check.Path before returning it;
	// verified=ok reports that verdict.
	res, err := core.EmbedPath(n, fs, s, t, cfg)
	if err != nil {
		fatal(err)
	}
	side := "different partite sets"
	if s.Parity(n) == t.Parity(n) {
		side = "same partite set"
	}
	fmt.Printf("S_%d longest path %s -> %s (%s): %d vertices (guarantee %d) verified=ok\n",
		n, s.StringN(n), t.StringN(n), side, res.Len(), res.Guarantee)
	if printAll {
		for _, v := range res.Path {
			fmt.Println(v.StringN(n))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starring:", err)
	os.Exit(1)
}
