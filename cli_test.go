package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/prof"
)

// End-to-end coverage of the command-line tools and examples: each is
// compiled and executed, and its output checked for the load-bearing
// claims. These tests need the go tool; they are skipped under -short.

func runGo(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func TestCLIStarring(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runGo(t, "run", "./cmd/starring", "-n", "6", "-fv", "213456,312456")
	if !strings.Contains(out, "ring length=716") || !strings.Contains(out, "verified=ok") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestCLIStarringSaveAndPathMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "ring.srg")
	out := runGo(t, "run", "./cmd/starring", "-n", "5", "-random", "2", "-seed", "3", "-save", file)
	if !strings.Contains(out, "saved 116-vertex ring") {
		t.Fatalf("save output:\n%s", out)
	}
	if fi, err := os.Stat(file); err != nil || fi.Size() == 0 {
		t.Fatalf("saved file missing: %v", err)
	}

	out = runGo(t, "run", "./cmd/starring", "-n", "6", "-random", "2", "-seed", "1",
		"-path-from", "123456", "-path-to", "654321")
	if !strings.Contains(out, "longest path") || !strings.Contains(out, "verified=ok") {
		t.Fatalf("path output:\n%s", out)
	}
}

func TestCLIStarringBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runGo(t, "run", "./cmd/starring", "-n", "6", "-fv", "213456,312456", "-algo", "tseng")
	if !strings.Contains(out, "ring length=712") { // 720 - 4*2
		t.Fatalf("tseng output:\n%s", out)
	}
	out = runGo(t, "run", "./cmd/starring", "-n", "6", "-fv", "213456,312456", "-algo", "latifi")
	if !strings.Contains(out, "verified=ok") {
		t.Fatalf("latifi output:\n%s", out)
	}
}

func TestCLIStarsweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runGo(t, "run", "./cmd/starsweep", "-quick", "-exp", "T2")
	if !strings.Contains(out, "achieved=ceiling") || strings.Contains(out, "NO") {
		t.Fatalf("T2 output:\n%s", out)
	}
}

func TestCLIStarinfo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runGo(t, "run", "./cmd/starinfo", "-n", "5", "-from", "12345", "-to", "52341")
	if !strings.Contains(out, "distance(12345, 52341) = 1") {
		t.Fatalf("starinfo output:\n%s", out)
	}
}

func TestCLIStarviz(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runGo(t, "run", "./cmd/starviz", "-n", "4")
	if !strings.Contains(out, "graph S {") || !strings.Contains(out, "--") {
		t.Fatalf("starviz output:\n%s", out)
	}
	out = runGo(t, "run", "./cmd/starviz", "-n", "6", "-random", "3", "-mode", "ring")
	if !strings.Contains(out, "digraph R4 {") || !strings.Contains(out, "indianred") {
		t.Fatalf("starviz ring output:\n%s", out)
	}
}

// TestCLIRejectsBadDimensionAndFaultCount pins that starring, starviz
// and starinfo neither hang nor panic on an out-of-range -n or on more
// random faults than S_n has vertices: each run must exit non-zero
// with a one-line error well inside its deadline.
func TestCLIRejectsBadDimensionAndFaultCount(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	bin := t.TempDir()
	runGo(t, "build", "-o", bin+string(filepath.Separator), "./cmd/starring", "./cmd/starviz", "./cmd/starinfo")
	for _, c := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"starring", []string{"-n", "3", "-random", "7"}, "starring: -random/-faults 7 exceeds the 6 vertices of S_3"},
		{"starring", []string{"-n", "3", "-random", "7", "-best-effort"}, "exceeds the 6 vertices"},
		{"starring", []string{"-n", "3", "-random", "4", "-faults", "3"}, "exceeds the 6 vertices"},
		{"starring", []string{"-n", "17", "-random", "1"}, "starring: -n 17 out of range [3,16]"},
		{"starring", []string{"-n", "-1"}, "out of range"},
		{"starviz", []string{"-n", "3", "-random", "7"}, "starviz: -random 7 exceeds the 6 vertices of S_3"},
		{"starviz", []string{"-n", "17", "-random", "1"}, "starviz: -n 17 out of range [1,16]"},
		{"starinfo", []string{"-n", "0"}, "starinfo: -n 0 out of range [1,16]"},
		{"starinfo", []string{"-n", "17"}, "starinfo: -n 17 out of range [1,16]"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, filepath.Join(bin, c.cmd), c.args...).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		line := strings.TrimSpace(string(out))
		switch {
		case timedOut:
			t.Errorf("%s %v: still running after 10s", c.cmd, c.args)
		case err == nil:
			t.Errorf("%s %v: exit 0, want an error:\n%s", c.cmd, c.args, out)
		case strings.Contains(line, "\n") || strings.Contains(line, "panic") || !strings.Contains(line, c.want):
			t.Errorf("%s %v: want the one-line error %q, got:\n%s", c.cmd, c.args, c.want, out)
		}
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	checks := map[string]string{
		"quickstart":     "independent verification: ok",
		"faulttolerance": "best-effort",
		"tokenring":      "all-reduce complete",
		"comparison":     "latifi",
		"resilience":     "campaign summary",
		"scheduler":      "stale embedding rejected",
	}
	for example, want := range checks {
		out := runGo(t, "run", "./examples/"+example)
		if !strings.Contains(out, want) {
			t.Errorf("example %s: missing %q in output:\n%s", example, want, out)
		}
	}
}

func TestCLIStarverify(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "ring.srg")
	runGo(t, "run", "./cmd/starring", "-n", "5", "-fv", "21345", "-save", file)

	// Valid against the same fault set.
	out := runGo(t, "run", "./cmd/starverify", "-ring", file, "-fv", "21345", "-minlen", "118")
	if !strings.Contains(out, "starverify: ok") {
		t.Fatalf("verify output:\n%s", out)
	}

	// A new fault on the ring must be rejected (non-zero exit).
	cmd := exec.Command("go", "run", "./cmd/starverify", "-ring", file, "-fv", "21345,12345")
	cmd.Dir = repoRoot(t)
	combined, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("stale embedding accepted:\n%s", combined)
	}
	if !strings.Contains(string(combined), "REJECTED") {
		t.Fatalf("missing rejection message:\n%s", combined)
	}
}

// TestCLIStarringMetrics exercises the observability flags end to end:
// -metrics-json must leave a parseable dump with the phase, cache,
// backtrack and block metrics, and -debug-addr must announce a live
// expvar/pprof endpoint.
func TestCLIStarringMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	file := filepath.Join(t.TempDir(), "metrics.json")
	out := runGo(t, "run", "./cmd/starring", "-n", "6", "-faults", "3", "-seed", "2",
		"-debug-addr", "127.0.0.1:0", "-metrics-json", file)
	if !strings.Contains(out, "debug server listening on http://") {
		t.Errorf("missing debug server announcement:\n%s", out)
	}
	if !strings.Contains(out, "metrics written to "+file) {
		t.Errorf("missing metrics confirmation:\n%s", out)
	}

	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Gauges     map[string]int64          `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
		Events     []map[string]any          `json:"events"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, raw)
	}
	for _, h := range []string{"core.phase.total", "core.phase.separation", "core.phase.build_r4",
		"core.phase.blocks", "core.phase.junction", "core.phase.verify", "core.phase.stream_emit"} {
		if _, ok := snap.Histograms[h]; !ok {
			t.Errorf("missing phase histogram %s", h)
		}
	}
	for _, c := range []string{"core.s4.cache_hits", "core.s4.cache_misses",
		"core.junction.backtracks", "core.route.blocks", "core.stream.blocks"} {
		if _, ok := snap.Counters[c]; !ok {
			t.Errorf("missing counter %s", c)
		}
	}
	// S_6 has 720/24 = 30 blocks: routed once and replayed once, by the
	// self-verification cursor, whose verdict the CLI reports; the CLI
	// does not walk the ring itself.
	if got := snap.Counters["core.route.blocks"]; got != 30 {
		t.Errorf("core.route.blocks = %d, want 30", got)
	}
	if got := snap.Counters["core.stream.blocks"]; got != 30 {
		t.Errorf("core.stream.blocks = %d, want 30", got)
	}
	if len(snap.Events) == 0 {
		t.Error("no span events recorded")
	}
}

// TestCLIStarsweepJSON checks the machine-readable sweep output.
func TestCLIStarsweepJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runGo(t, "run", "./cmd/starsweep", "-quick", "-exp", "F2", "-json")
	var doc struct {
		Experiments []struct {
			ID      string   `json:"id"`
			Headers []string `json:"headers"`
			Rows    [][]struct {
				Text string   `json:"text"`
				Num  *float64 `json:"num"`
				NS   *int64   `json:"ns"`
			} `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "F2" {
		t.Fatalf("unexpected experiments: %+v", doc.Experiments)
	}
	f2 := doc.Experiments[0]
	if len(f2.Rows) == 0 || len(f2.Headers) == 0 {
		t.Fatalf("empty F2 table: %+v", f2)
	}
	// F2's columns are typed: n is numeric, the time column carries its
	// exact nanosecond value so consumers never re-parse "150µs" strings.
	row := f2.Rows[0]
	if row[0].Num == nil || *row[0].Num < 3 {
		t.Errorf("n column not typed: %+v", row[0])
	}
	if row[4].NS == nil {
		t.Errorf("time column carries no ns value: %+v", row[4])
	}
	if row[4].Text == "" {
		t.Errorf("time column lost its rendered text: %+v", row[4])
	}
}

// TestCLIStarringProfiles exercises -cpuprofile and -memprofile end to
// end: the CPU profile must exist, parse, and carry the phase=embed
// goroutine label on at least one sample (the tentpole claim — profiles
// attribute time to pipeline phases). n=10 keeps the embedder busy long
// enough for the 100Hz profiler to catch labeled samples: its embed
// phase collects 130-220 ms of samples, n=9's only 10-20 ms and at
// times none.
func TestCLIStarringProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out := runGo(t, "run", "./cmd/starring", "-n", "10", "-faults", "7", "-seed", "1",
		"-cpuprofile", cpu, "-memprofile", mem)
	if !strings.Contains(out, "cpu profile written to "+cpu) ||
		!strings.Contains(out, "heap profile written to "+mem) {
		t.Fatalf("missing profile confirmations:\n%s", out)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
	data, err := os.ReadFile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := prof.CPUProfileHasLabel(data, "phase", "embed")
	if err != nil {
		t.Fatalf("cpu profile does not parse: %v", err)
	}
	if !ok {
		t.Errorf("no phase=embed labeled samples in %s", cpu)
	}
}

func TestCLIStarinfoDisjoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runGo(t, "run", "./cmd/starinfo", "-n", "5", "-from", "12345", "-to", "54321", "-disjoint")
	if !strings.Contains(out, "4 node-disjoint paths (connectivity 4)") {
		t.Fatalf("disjoint output:\n%s", out)
	}
}

// TestCLIStarringExport exercises the export flags end to end: the
// Perfetto trace and NDJSON event log must validate through the same
// checkers starmon and CI use.
func TestCLIStarringExport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	events := filepath.Join(dir, "events.ndjson")
	out := runGo(t, "run", "./cmd/starring", "-n", "6", "-faults", "2", "-seed", "1",
		"-trace-out", trace, "-events-out", events)
	if !strings.Contains(out, "trace written to "+trace) {
		t.Errorf("missing trace confirmation:\n%s", out)
	}

	out = runGo(t, "run", "./cmd/starmon", "-check-trace", trace)
	if !strings.Contains(out, "trace ok:") {
		t.Errorf("trace did not validate:\n%s", out)
	}
	out = runGo(t, "run", "./cmd/starmon", "-replay", events)
	if !strings.Contains(out, "core.embed") {
		t.Errorf("event log missing core.embed record:\n%s", out)
	}
}

// TestCLIStarsweepSeries checks -series-json and -trace-out on the
// sweep driver plus starmon's OpenMetrics checker against a saved
// scrape from the sweep registry.
func TestCLIStarsweepSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	series := filepath.Join(dir, "series.json")
	trace := filepath.Join(dir, "trace.json")
	runGo(t, "run", "./cmd/starsweep", "-quick", "-exp", "F2",
		"-series-json", series, "-series-period", "10ms", "-trace-out", trace)

	raw, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		PeriodNS int64 `json:"period_ns"`
		Series   []struct {
			Name    string           `json:"name"`
			Kind    string           `json:"kind"`
			Samples []map[string]any `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("series file is not valid JSON: %v\n%s", err, raw)
	}
	if dump.PeriodNS != 10_000_000 {
		t.Errorf("period_ns = %d, want 10ms", dump.PeriodNS)
	}
	found := false
	for _, s := range dump.Series {
		if strings.HasPrefix(s.Name, "harness.exp.") || strings.HasPrefix(s.Name, "core.") {
			found = true
		}
		if len(s.Samples) == 0 {
			t.Errorf("series %s has no samples", s.Name)
		}
	}
	if !found {
		t.Errorf("no sweep metrics in series dump:\n%s", raw)
	}

	out := runGo(t, "run", "./cmd/starmon", "-check-trace", trace)
	if !strings.Contains(out, "trace ok:") {
		t.Errorf("sweep trace did not validate:\n%s", out)
	}
}

// TestCLIStarringFlight is the causal-tracing acceptance run: a single
// starring invocation emitting events, trace and flight bundle, where
// every core.* event's trace id resolves to a span in the Perfetto
// trace, the metrics snapshot carries an OpenMetrics exemplar, and
// starmon validates the event log and renders the post-mortem.
func TestCLIStarringFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	events := filepath.Join(dir, "events.ndjson")
	flight := filepath.Join(dir, "flight")
	out := runGo(t, "run", "./cmd/starring", "-n", "6", "-faults", "2", "-seed", "1",
		"-trace-out", trace, "-events-out", events, "-flight-dump", flight)
	if !strings.Contains(out, "flight bundle written to "+flight) {
		t.Errorf("missing flight confirmation:\n%s", out)
	}

	// Every core.* event must carry a trace id that resolves to a span
	// in the trace file.
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr export.Trace
	if err := json.Unmarshal(traceData, &tr); err != nil {
		t.Fatal(err)
	}
	traces := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Args["trace_id"] != "" {
			traces[e.Args["trace_id"]] = true
		}
	}
	coreRecs := 0
	for _, r := range recs {
		if !strings.HasPrefix(r.Event, "core.") {
			continue
		}
		coreRecs++
		if r.Trace == 0 {
			t.Errorf("core event %q is untraced", r.Event)
			continue
		}
		if !traces[r.Trace.String()] {
			t.Errorf("core event %q trace %s has no spans in the trace file", r.Event, r.Trace)
		}
	}
	if coreRecs == 0 {
		t.Error("no core.* events recorded")
	}

	// The bundle's metrics snapshot must carry at least one exemplar.
	metrics, err := os.ReadFile(filepath.Join(flight, "flight-metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), `# {trace_id="`) {
		t.Errorf("no OpenMetrics exemplar in flight metrics:\n%s", metrics)
	}

	// starmon validates the event log and renders the bundle.
	out = runGo(t, "run", "./cmd/starmon", "-check-events", events)
	if !strings.Contains(out, "events ok:") {
		t.Errorf("check-events:\n%s", out)
	}
	out = runGo(t, "run", "./cmd/starmon", "-postmortem", flight)
	if !strings.Contains(out, "flight bundle") || !strings.Contains(out, "trace ") {
		t.Errorf("postmortem render:\n%s", out)
	}
}
