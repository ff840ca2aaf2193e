// Command perfbench is the repository's benchmark of record. It runs
// one named workload against the library in-process, checks every
// output, and prints one JSON line of metrics:
//
//	perfbench --workload churn_n8 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; their timings are process CPU time per operation (cpu.go)
// in medians of a reference kernel's CPU time (reference.go), which
// holds still on a shared host where milliseconds do not. With
// --trace 1 the run is split: an untraced half gives the untraced op
// time, a traced half records spans around calls into
// each layer's public functions (written to .bench_build/spans-*.ndjson
// under the working directory) and yields the per-layer metrics. See
// README.md for every metric's definition and the layer-to-end-to-end
// map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// spanDir is where traced runs write their spans, relative to the
// working directory (the checkout root).
const spanDir = ".bench_build"

// unitOf lists every metric the benchmark can print, with its unit.
// endToEnd and perLayer fix the print sets of the two modes; a test
// keeps them equal to BENCHMARK.json.
var unitOf = map[string]string{}

var endToEnd = defineMetrics(
	"setup_s", "s",
	"mean_rel", "x",
	"tail_rel", "x",
	"goodput", "ratio",
	"heap_mib", "MiB",
	"peak_rss_mib", "MiB",
)

var perLayer = defineMetrics(
	"faults.separation_us", "us",
	"superring.build_r4_ms", "ms",
	"core.route_ms", "ms",
	"core.embed_ms", "ms",
	"core.embed_unattributed_share", "ratio",
	"core.allocs_per_embed", "count",
	"core.alloc_mib_per_embed", "MiB",
	"core.repair_splice_us", "us",
	"core.repair_rebuild_ms", "ms",
	"core.repair_splice_share", "ratio",
	"core.stream_embed_s", "s",
	"core.cursor_ns_per_vertex", "ns",
	"core.skeleton_bytes_per_block", "B",
	"pathsearch.block_path_ns", "ns",
	"pathsearch.cache_hits_per_embed", "count",
	"pathsearch.cache_misses", "count",
	"check.ring_ms", "ms",
	"check.stream_ns_per_vertex", "ns",
	"ringio.write_ns_per_vertex", "ns",
	"ringio.read_ns_per_vertex", "ns",
	"ringio.bytes_per_vertex", "B",
	"serve.parse_us", "us",
	"serve.engine_ms", "ms",
	"serve.embed.handler_ms", "ms",
	"serve.repair.handler_ms", "ms",
	"serve.ring.handler_ms", "ms",
	"serve.ring_encode_ms", "ms",
	"serve.overhead_ms", "ms",
	"serve.transport_ms", "ms",
	"client.queue_ms", "ms",
	"gen.lag_ms", "ms",
	"serve.shed", "count",
	"serve.non2xx", "count",
	"runtime.gc_cycles_per_s", "1/s",
	"trace.overhead_share", "ratio",
	"trace.spans", "count",
)

// defineMetrics records name/unit pairs in unitOf and returns the names
// in order.
func defineMetrics(pairs ...string) []string {
	names := make([]string, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		unitOf[pairs[i]] = pairs[i+1]
		names = append(names, pairs[i])
	}
	return names
}

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	clock    obs.Clock // wall time: latency, windows, goodput
	cpu      obs.Clock // process CPU time: the end-to-end timings
}

// tally counts attempted and failed operations; a failure is an error
// or a wrong output. The first few failures are kept for the log.
type tally struct {
	attempted, failed int
	errs              []error
}

// note records one operation's verdict (nil is success) and reports it.
func (t *tally) note(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err)
		}
		return false
	}
	return true
}

// endToEndRun is what a workload's untraced run hands back.
type endToEndRun struct {
	lat    samples       // wall latency of each successful timed op
	cpu    samples       // process CPU time of each successful timed op
	ref    *reference    // the kernel the CPU times are expressed in
	timed  int           // timed ops attempted
	ops    int           // timed ops that succeeded
	good   int           // successful timed ops within limit
	heap   int64         // live heap one engine state holds, bytes
	setups []float64     // reference-box CPU seconds per set-up repetition
	tailQ  float64       // the workload's tail quantile
	limit  time.Duration // the workload's latency limit
}

// event records one timed op's wall latency d, its CPU time c and its
// verdict. An op whose CPU time was not taken passes c = 0.
func (r *endToEndRun) event(t *tally, d, c time.Duration, err error) {
	r.timed++
	if !t.note(err) {
		return
	}
	r.lat.add(d)
	if c > 0 {
		r.cpu.add(c)
		if r.ref != nil {
			r.ref.after(c)
		}
	}
	r.ops++
	if d <= r.limit {
		r.good++
	}
}

// metrics turns a run into the end-to-end metric map.
func (r *endToEndRun) metrics() map[string]float64 {
	good := 0.0
	if r.timed > 0 {
		good = float64(r.good) / float64(r.timed)
	}
	if !reportable(r.cpu.n(), r.tailQ) {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d samples leave fewer than %d beyond p%g\n",
			r.cpu.n(), minBeyond, r.tailQ*100)
	}
	rel := r.ref.rel()
	return map[string]float64{
		"setup_s":      medianFloat(r.setups),
		"mean_rel":     meanFloat(rel),
		"tail_rel":     quantileFloat(rel, r.tailQ),
		"goodput":      good,
		"heap_mib":     float64(r.heap) / (1 << 20),
		"peak_rss_mib": peakRSSMiB(),
	}
}

// workload is one named benchmark scenario.
type workload struct {
	why      string
	endToEnd func(o opts, t *tally) (*endToEndRun, error)
	traced   func(o opts, t *tally, tr *tracer) (map[string]float64, error)
}

var workloads = map[string]workload{
	"churn_n8":  {why: churnWhy, endToEnd: churnEndToEnd, traced: churnTraced},
	"stream_n9": {why: streamWhy, endToEnd: streamEndToEnd, traced: streamTraced},
	"serve_n7":  {why: serveWhy, endToEnd: serveEndToEnd, traced: serveTraced},
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchProcs is the benchmark's GOMAXPROCS, whatever the machine has.
// The engines route on one worker, so the workload runs on one P and
// the GC's dedicated mark worker on the other. On a single P the GC
// gets a fraction of it instead, and the heap overshoots its goal by a
// varying amount: peak RSS read 20 to 30 MiB between churn_n8 runs of
// one seed, against 19.8 to 19.9 MiB on two.
const benchProcs = 2

func main() {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the result line. The
// exit code is 0 only when every operation succeeded and was correct.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: churn_n8, stream_n9 or serve_n7")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	o := opts{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, clock: obs.Wall, cpu: cpuClock{}}

	var t tally
	values, err := measure(w, o, &t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, e := range t.errs {
		fmt.Fprintf(stderr, "perfbench: %s: failure: %v\n", o.workload, e)
	}
	names := endToEnd
	if o.traced {
		names = perLayer
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		res.Metrics[m] = metric{Value: values[m], Unit: unitOf[m]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// measure dispatches to the workload's untraced or traced run.
func measure(w workload, o opts, t *tally) (map[string]float64, error) {
	if !o.traced {
		r, err := w.endToEnd(o, t)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed ops; wall p50 %.4g p95 %.4g p99 %.4g ms; cpu p50 %.4g p75 %.4g p95 %.4g ms; reference p50 %.4g ms over %d; set-ups %.4g reference-box s\n",
			o.workload, r.lat.n(), ms(r.lat.quantile(0.5)), ms(r.lat.quantile(0.95)), ms(r.lat.quantile(0.99)),
			ms(r.cpu.quantile(0.5)), ms(r.cpu.quantile(0.75)), ms(r.cpu.quantile(0.95)),
			medianDuration(r.ref.runs)/1e6, len(r.ref.runs), r.setups)
		return r.metrics(), nil
	}
	tr := newTracer(o.clock)
	values, err := w.traced(o, t, tr)
	if err != nil {
		return nil, err
	}
	values["trace.spans"] = float64(len(tr.spans))
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.ndjson", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return values, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timedSetups runs build k times and returns the last instance with
// each repetition's seconds on clock; every earlier instance is
// released with discard. The first repetition is timed from first, the
// clock's reading at process start, so it carries runtime and package
// initialization, the cold S4 cache fill and ref's own set-up; the
// median over k reports the warm set-up. Each repetition is followed
// by refWindow runs of ref's kernel, and its seconds are scaled by
// refNominal over their median: the seconds the set-up would take on
// the reference box (see reference.go).
func timedSetups[T any](clock obs.Clock, first time.Time, ref *reference, k int, build func() (T, error), discard func(T)) (T, []float64, error) {
	var cur T
	secs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		start := first
		if i > 0 {
			// Start every repetition from a collected heap, so a GC
			// cycle left over from the previous one does not land in it.
			runtime.GC()
			start = clock.Now()
		}
		v, err := build()
		if err != nil {
			if i > 0 {
				discard(cur)
			}
			var zero T
			return zero, nil, err
		}
		took := obs.Since(clock, start).Seconds()
		secs = append(secs, took*float64(refNominal)/ref.sample(refWindow))
		if i > 0 {
			discard(cur)
		}
		cur = v
	}
	return cur, secs, nil
}

// heapHeld measures the live heap a value built by build keeps
// reachable: a forced GC on each side of the build, median of reps.
func heapHeld[T any](reps int, build func() (T, error)) (int64, error) {
	var deltas []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		before := prof.HeapLiveBytes()
		v, err := build()
		if err != nil {
			return 0, err
		}
		runtime.GC()
		after := prof.HeapLiveBytes()
		deltas = append(deltas, float64(after-before))
		runtime.KeepAlive(v)
	}
	return int64(medianFloat(deltas)), nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCyclesGauge is the RuntimeSampler gauge counting completed GCs.
const gcCyclesGauge = "runtime.gc.cycles"

// gcMeter measures GC cycles per second through prof.RuntimeSampler.
type gcMeter struct {
	sampler *prof.RuntimeSampler
	cycles  *obs.Gauge
	clock   obs.Clock
	t0      time.Time
	c0      int64
}

func startGCMeter(clock obs.Clock) *gcMeter {
	reg := obs.NewRegistry()
	m := &gcMeter{sampler: prof.NewRuntimeSampler(reg), cycles: reg.Gauge(gcCyclesGauge), clock: clock}
	m.sampler.Sample()
	m.t0, m.c0 = clock.Now(), m.cycles.Value()
	return m
}

// perSecond returns the GC cycles completed per second since start.
func (m *gcMeter) perSecond() float64 {
	m.sampler.Sample()
	return float64(m.cycles.Value()-m.c0) / obs.Since(m.clock, m.t0).Seconds()
}

// allocMark is a reading of the cumulative heap allocation counters.
type allocMark struct{ objects, bytes uint64 }

// readAllocs reads the allocation counters. Only traced runs call it.
func readAllocs() allocMark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return allocMark{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// overheadShare compares the traced op time with the untraced one.
func overheadShare(traced, untraced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return float64(traced)/float64(untraced) - 1
}

var errNoOps = errors.New("no operation completed in the measured window")
