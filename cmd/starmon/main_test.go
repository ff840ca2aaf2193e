package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/prof"
)

// liveRegistry builds a registry with one metric of each kind.
func liveRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.SetClock(obs.NewManual(time.Unix(50, 0)))
	reg.Counter("t.run.steps").Add(7)
	reg.Gauge("t.run.depth").Set(3)
	reg.Histogram("t.run.latency").Observe(1500)
	return reg
}

func TestRunCheckMetricsURL(t *testing.T) {
	srv := httptest.NewServer(export.MetricsHandler(liveRegistry()))
	defer srv.Close()

	var out, errOut strings.Builder
	if code := run([]string{"-check-metrics", srv.URL}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "openmetrics ok") {
		t.Errorf("output %q", out.String())
	}
}

func TestRunCheckMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.txt")
	var page strings.Builder
	if err := export.WriteOpenMetrics(&page, liveRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(page.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if code := run([]string{"-check-metrics", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}

	// A corrupt page must fail the check.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not a metrics page\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-check-metrics", bad}, &out, &errOut); code != 1 {
		t.Errorf("corrupt page: exit %d, want 1", code)
	}
}

func TestRunCheckTrace(t *testing.T) {
	clock := obs.NewManual(time.Unix(10, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	rec := obs.NewFlightRecorder(reg, 8, nil, obs.LevelDebug)
	sp := reg.Span("t.phase.total")
	clock.Advance(time.Millisecond)
	sp.End()

	path := filepath.Join(t.TempDir(), "trace.json")
	writeTrace(t, path, rec.SpanEvents())

	var out, errOut strings.Builder
	if code := run([]string{"-check-trace", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "trace ok: 1 complete events") {
		t.Errorf("output %q", out.String())
	}

	// A span-free trace is structurally valid JSON but useless; the
	// checker demands at least one complete event.
	empty := filepath.Join(t.TempDir(), "empty.json")
	writeTrace(t, empty, nil)
	if code := run([]string{"-check-trace", empty}, &out, &errOut); code != 1 {
		t.Errorf("empty trace: exit %d, want 1", code)
	}
}

// writeTrace saves the spans as a Perfetto trace file.
func writeTrace(t *testing.T, path string, events []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	if err := export.WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunReplay(t *testing.T) {
	var log strings.Builder
	reg := obs.NewRegistry()
	reg.SetClock(obs.NewManual(time.Unix(1, 0)))
	obs.NewFlightRecorder(reg, 8, &log, obs.LevelDebug)
	reg.Log(obs.LevelInfo, "sim.fault", obs.F("vertex", "21345"))
	reg.Log(obs.LevelInfo, "sim.repair", obs.F("outcome", "splice"))
	reg.Log(obs.LevelInfo, "sim.repair", obs.F("outcome", "rebuild"))
	reg.Log(obs.LevelDebug, "sim.token_move", obs.F("pos", 3))

	path := filepath.Join(t.TempDir(), "events.ndjson")
	if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if code := run([]string{"-replay", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"4 records",
		"debug=1",
		"info=3",
		"sim.repair",
		"sim.repair:splice",
		"sim.repair:rebuild",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("replay output missing %q:\n%s", want, text)
		}
	}
}

func TestRunAttachFrames(t *testing.T) {
	reg := liveRegistry()
	srv := httptest.NewServer(export.MetricsHandler(reg))
	defer srv.Close()

	var out, errOut strings.Builder
	code := run([]string{
		"-attach", strings.TrimPrefix(srv.URL, "http://"),
		"-frames", "2", "-interval", "1ms",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "frame 1") || !strings.Contains(text, "frame 2") {
		t.Fatalf("expected two frames:\n%s", text)
	}
	if !strings.Contains(text, "t_run_steps_total") {
		t.Errorf("counter missing from frames:\n%s", text)
	}
	if !strings.Contains(text, "/s") {
		t.Errorf("second frame should show a rate:\n%s", text)
	}
}

// serveScrape builds a canned starserve /metrics page: the labeled RED
// families with an exemplar on the p95 quantile, the admission gauges,
// and one algorithm counter that must stay in the main listing. The
// counters scale with step so consecutive frames see positive deltas.
func serveScrape(step int) string {
	return strings.Join([]string{
		"# TYPE serve_requests counter",
		`serve_requests_total{code="200",n="6",route="embed"} ` + itoa(40*step),
		`serve_requests_total{code="429",n="0",route="embed"} ` + itoa(10*step),
		"# TYPE serve_errors counter",
		`serve_errors_total{code="429",route="embed"} ` + itoa(10*step),
		"# TYPE serve_good counter",
		`serve_good_total{route="embed"} ` + itoa(40*step),
		"# TYPE serve_latency summary",
		`serve_latency{quantile="0.5",route="embed"} 0.002`,
		`serve_latency{quantile="0.95",route="embed"} 0.009 # {trace_id="00000000deadbeef"} 0.011`,
		`serve_latency_sum{route="embed"} 0.08`,
		`serve_latency_count{route="embed"} ` + itoa(50*step),
		"# TYPE serve_inflight gauge",
		"serve_inflight 1",
		"# TYPE serve_shed counter",
		"serve_shed_total " + itoa(10*step),
		"# TYPE core_embed_ok counter",
		"core_embed_ok_total " + itoa(40*step),
		"# EOF",
		"",
	}, "\n")
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestRunAttachServeSection drives -attach over two frames of a canned
// starserve scrape and checks the serve_* RED families render as their
// own section: every labeled series indented under the "serve:" header,
// counter lines carrying a per-second rate on the second frame, the
// latency quantile carrying its slowest-request exemplar trace — and
// the algorithm counter staying out in the main listing.
func TestRunAttachServeSection(t *testing.T) {
	var mu sync.Mutex
	step := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		step++
		page := serveScrape(step)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/openmetrics-text")
		w.Write([]byte(page))
	}))
	defer srv.Close()

	var out, errOut strings.Builder
	code := run([]string{"-attach", srv.URL, "-frames", "2", "-interval", "1ms"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "serve:") {
		t.Fatalf("missing serve section:\n%s", text)
	}
	for _, want := range []string{
		`serve_requests_total{code="200",n="6",route="embed"}`,
		`serve_requests_total{code="429",n="0",route="embed"}`,
		`serve_errors_total{code="429",route="embed"}`,
		`serve_latency{quantile="0.95",route="embed"}`,
		"serve_inflight",
		"serve_shed_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("serve section missing %s:\n%s", want, text)
		}
	}
	// The p95 quantile line carries the exemplar's trace id, so a slow
	// request seen on the dashboard hands starmon -postmortem its key.
	if !strings.Contains(text, "trace=00000000deadbeef") {
		t.Errorf("latency exemplar not rendered:\n%s", text)
	}
	// Every serve_* line lives inside the section (4-space indent), and
	// counters there show a rate once a previous frame exists.
	frames := strings.Split(text, "frame 2")
	if len(frames) != 2 {
		t.Fatalf("expected two frames:\n%s", text)
	}
	var sawRate bool
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "serve_") && !strings.HasPrefix(line, "    ") {
			t.Errorf("serve family outside the serve section: %q", line)
		}
	}
	for _, line := range strings.Split(frames[1], "\n") {
		if strings.Contains(line, "serve_requests_total") && strings.Contains(line, "/s") {
			sawRate = true
		}
	}
	if !sawRate {
		t.Errorf("frame 2 serve counters missing per-second rates:\n%s", frames[1])
	}
	// The algorithm counter stays in the main listing at its own indent.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "core_embed_ok_total") && strings.HasPrefix(line, "    ") {
			t.Errorf("algorithm counter swallowed by a section: %q", line)
		}
	}
}

// TestRunAttachRuntimeSection drives -attach against a registry fed by
// a live prof.RuntimeSampler and checks the runtime gauges render as a
// dedicated frame section with human units instead of raw floats.
func TestRunAttachRuntimeSection(t *testing.T) {
	reg := liveRegistry()
	rt := prof.NewRuntimeSampler(reg)
	rt.Sample()
	srv := httptest.NewServer(export.MetricsHandler(reg))
	defer srv.Close()

	var out, errOut strings.Builder
	code := run([]string{"-attach", srv.URL, "-frames", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "runtime:") {
		t.Fatalf("missing runtime section:\n%s", text)
	}
	for _, gauge := range []string{
		"runtime_mem_heap_bytes",
		"runtime_gc_cycles",
		"runtime_gc_pause_p95_ns",
		"runtime_sched_goroutines",
		"runtime_sched_latency_p95_ns",
	} {
		if !strings.Contains(text, gauge) {
			t.Errorf("runtime section missing %s:\n%s", gauge, text)
		}
	}
	// Heap bytes render with a binary-size unit, not a raw float.
	if !strings.Contains(text, "iB") && !strings.Contains(text, " B\n") {
		t.Errorf("heap gauge not humanized:\n%s", text)
	}
	// Runtime gauges must not also appear in the main metric listing
	// (every runtime_* line is indented under the section header).
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "runtime_") && !strings.HasPrefix(line, "    ") {
			t.Errorf("runtime gauge outside the runtime section: %q", line)
		}
	}
}

func TestFormatRuntimeValue(t *testing.T) {
	cases := []struct {
		name string
		v    float64
		want string
	}{
		{"runtime_mem_heap_bytes", 5 << 20, "5.00 MiB"},
		{"runtime_mem_heap_bytes", 512, "512 B"},
		{"runtime_gc_pause_p95_ns", 1.5e6, "1.5ms"},
		{"runtime_sched_goroutines", 12, "12"},
	}
	for _, c := range cases {
		if got := formatRuntimeValue(c.name, c.v); got != c.want {
			t.Errorf("formatRuntimeValue(%s, %g) = %q, want %q", c.name, c.v, got, c.want)
		}
	}
}

func TestRunModeValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no mode: exit %d, want 2", code)
	}
	if code := run([]string{"-replay", "x", "-check-trace", "y"}, &out, &errOut); code != 2 {
		t.Errorf("two modes: exit %d, want 2", code)
	}
}

// A negative -frames used to poll zero frames, so -watch passed its SLO
// gate and -attach exited 0 without one scrape. Both counts are usage
// errors, rejected before any mode runs (the address is never dialed).
func TestRunRejectsNegativeCounts(t *testing.T) {
	rules := writeFile(t, "rules.json", `{"rules": [
		{"name": "r", "kind": "threshold", "metric": "m", "window_s": 1, "max": 1}
	]}`)
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-frames", []string{"-watch", "-attach", "127.0.0.1:1", "-rules", rules, "-frames", "-1"}},
		{"-frames", []string{"-attach", "127.0.0.1:1", "-frames", "-3"}},
		{"-retries", []string{"-attach", "127.0.0.1:1", "-frames", "1", "-retries", "-1"}},
	} {
		var out, errOut strings.Builder
		code := run(tc.args, &out, &errOut)
		lines := strings.Split(strings.TrimSpace(errOut.String()), "\n")
		if code != 2 || len(lines) != 1 || !strings.Contains(lines[0], tc.flag) || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				tc.args, code, out.String(), errOut.String(), tc.flag)
		}
	}
}

// tracedRegistry builds a registry with a flight recorder (streaming
// its log lines to the returned builder) that ran one traced
// operation, so /metrics carries an exemplar and spans/events carry
// identity.
func tracedRegistry(t *testing.T) (*obs.Registry, *obs.FlightRecorder, *strings.Builder, obs.TraceID) {
	t.Helper()
	clock := obs.NewManual(time.Unix(100, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	var log strings.Builder
	rec := obs.NewFlightRecorder(reg, 32, &log, obs.LevelDebug)

	op := reg.StartOp("t.op.run")
	sp := op.Span("t.phase.step")
	clock.Advance(2 * time.Millisecond)
	sp.End()
	op.Log(obs.LevelInfo, "t.milestone", obs.F("k", 1))
	clock.Advance(time.Millisecond)
	op.End()
	return reg, rec, &log, op.Trace()
}

// -attach must retry a scrape that fails transiently instead of dying,
// and give up once the retry budget is spent.
func TestRunAttachRetriesTransientFailures(t *testing.T) {
	reg, _, _, _ := tracedRegistry(t)
	metrics := export.MetricsHandler(reg)
	var mu sync.Mutex
	failures := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			http.Error(w, "starting up", http.StatusServiceUnavailable)
			return
		}
		metrics.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var out, errOut strings.Builder
	code := run([]string{
		"-attach", srv.URL, "-frames", "1",
		"-retries", "3", "-retry-backoff", "1ms",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d despite retry budget, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "frame 1") {
		t.Errorf("no frame rendered:\n%s", out.String())
	}

	// With the budget exhausted before the server recovers, it must fail
	// and say how many attempts it made.
	mu.Lock()
	failures = 100
	mu.Unlock()
	out.Reset()
	errOut.Reset()
	code = run([]string{
		"-attach", srv.URL, "-frames", "1",
		"-retries", "2", "-retry-backoff", "1ms",
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 once retries are spent", code)
	}
	if !strings.Contains(errOut.String(), "after 3 attempts") {
		t.Errorf("stderr does not count attempts: %s", errOut.String())
	}
}

// A frame over an exemplar-carrying exposition must render the trace id
// next to the summary quantile, and the parser must not let the
// exemplar clause corrupt the sample name or value.
func TestRunAttachRendersExemplars(t *testing.T) {
	reg, _, _, trace := tracedRegistry(t)
	srv := httptest.NewServer(export.MetricsHandler(reg))
	defer srv.Close()

	var out, errOut strings.Builder
	if code := run([]string{"-attach", srv.URL, "-frames", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "trace="+trace.String()) {
		t.Errorf("frame does not surface the exemplar trace:\n%s", out.String())
	}
}

func TestRunCheckEvents(t *testing.T) {
	_, _, log, _ := tracedRegistry(t)
	dir := t.TempDir()
	events := filepath.Join(dir, "events.ndjson")
	if err := os.WriteFile(events, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if code := run([]string{"-check-events", events}, &out, &errOut); code != 0 {
		t.Fatalf("plain check: exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1 traced across 1 traces") {
		t.Errorf("output %q", out.String())
	}

	// A malformed line fails the check, naming its line.
	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, []byte(log.String()+"not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run([]string{"-check-events", bad}, &out, &errOut); code != 1 {
		t.Fatalf("malformed log: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "line 2") {
		t.Errorf("stderr %q does not name the bad line", errOut.String())
	}

	// The events-vs-trace cross-check is gone with its flag.
	if code := run([]string{"-check-events", events, "-trace", "trace.json"}, &out, &errOut); code != 2 {
		t.Errorf("-trace: exit %d, want 2 (unknown flag)", code)
	}
}

func TestRunPostmortem(t *testing.T) {
	reg, flight, _, first := tracedRegistry(t)
	op := reg.StartOp("t.op.again")
	op.Log(obs.LevelInfo, "t.milestone", obs.F("k", 2))
	op.End()

	dir := filepath.Join(t.TempDir(), "flight")
	if err := export.WriteFlightBundle(dir, flight); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if code := run([]string{"-postmortem", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"flight bundle",
		"trace " + first.String() + ":",
		"span  t.op.run",
		"span  t.phase.step",
		"trace " + op.Trace().String() + ":",
		"span  t.op.again",
		"t.milestone",
		"k=2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("postmortem missing %q:\n%s", want, text)
		}
	}

	// A missing bundle is an error, not an empty render.
	if code := run([]string{"-postmortem", filepath.Join(dir, "nope")}, &out, &errOut); code != 1 {
		t.Errorf("missing bundle: exit %d, want 1", code)
	}
}
