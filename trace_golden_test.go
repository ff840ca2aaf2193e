package repro_test

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Regenerate the trace-shape golden after an intended change to what
// the layers trace:
//
//	go test . -run TestTraceShapeGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/trace_shape.golden from the current layers")

// clientTrace is the X-Star-Trace id the /chaos request continues.
const clientTrace = "00000000deadbeef"

// TestTraceShapeGolden pins the shape of every trace one registry
// collects from the layers that trace: core embeds, repairs and
// longest paths (owned operations, a failing one included), a baseline
// routed through core's untraced spans, the simulator's operations and
// served requests. It renders the flight recorder's spans and log
// lines one block per trace, ids numbered within their trace by first
// appearance so the digest does not depend on the process-wide id
// sequence, then every counter and gauge value and histogram count.
func TestTraceShapeGolden(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetClock(obs.NewManual(time.Unix(1700000000, 0)))
	fr := obs.NewFlightRecorder(reg, 1<<16, nil, obs.LevelDebug)
	cfg := core.Config{Obs: reg}

	traceCoreLegs(t, cfg)
	traceSimLegs(t, reg)
	traceServeLegs(t, reg)

	got := renderTraceShape(fr, reg)
	path := filepath.Join("testdata", "trace_shape.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// faultSet builds a fault set of S_n from vertices in permutation
// notation.
func faultSet(t *testing.T, n int, vs ...string) *faults.Set {
	t.Helper()
	fs := faults.NewSet(n)
	for _, v := range vs {
		if err := fs.AddVertexString(v); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func code(t *testing.T, s string, n int) perm.Code {
	t.Helper()
	c, err := perm.ParseCode(s, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// traceCoreLegs runs the engine's operations: an S_6 ring with a splice
// and a rebuild repair, an S_6 path, the Tseng baseline, an embed past
// the budget and the strict S_5 path refusal.
func traceCoreLegs(t *testing.T, cfg core.Config) {
	e, err := core.NewEmbedder(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Embed(faultSet(t, 6, "213456"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []core.RepairOutcome{core.RepairSplice, core.RepairRebuild} {
		v, ok := ringVertex(plan, want == core.RepairSplice)
		if !ok {
			t.Fatalf("no ring vertex for a %v repair", want)
		}
		rep, err := plan.Repair(v)
		if err != nil || rep.Outcome != want {
			t.Fatalf("repair of %s: %v, %v; want %v", v.StringN(6), rep.Outcome, err, want)
		}
	}

	if _, err := core.EmbedPath(6, faultSet(t, 6, "213456"), code(t, "123456", 6), code(t, "654321", 6), cfg); err != nil {
		t.Fatalf("S_6 path: %v", err)
	}
	if _, err := baseline.Tseng(6, faultSet(t, 6, "213456", "321456"), cfg); err != nil {
		t.Fatalf("Tseng: %v", err)
	}
	if _, err := e.Embed(faultSet(t, 6, "213456", "321456", "231456", "312456")); err == nil {
		t.Fatal("an embed past the budget succeeded")
	}
	if _, err := core.EmbedPath(5, faultSet(t, 5, "12345", "31245"), code(t, "12354", 5), code(t, "42315", 5), cfg); err == nil {
		t.Fatal("the strict S_5 path refusal succeeded")
	}
}

// ringVertex returns the first vertex in ring order whose failure the
// plan would splice (splice true) or rebuild around (splice false).
func ringVertex(plan *core.Plan, splice bool) (perm.Code, bool) {
	c := plan.Cursor()
	for v, ok := c.Next(); ok; v, ok = c.Next() {
		if plan.CanSplice(v) == splice {
			return v, true
		}
	}
	return 0, false
}

// traceSimLegs boots an S_5 machine and fails two of its ring's
// processors.
func traceSimLegs(t *testing.T, reg *obs.Registry) {
	m, err := sim.New(sim.Config{N: 5, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 7} {
		if err := m.FailVertex(m.RingAt(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// traceServeLegs drives one request per route through the service's
// handler, each finished before the next starts.
func traceServeLegs(t *testing.T, reg *obs.Registry) {
	s, err := serve.New(serve.Config{MinN: 4, MaxN: 5, Chaos: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		url   string
		trace string
		code  int
	}{
		{"/embed?n=5&fv=21345", "", http.StatusOK},
		{"/repair?n=5&fv=21345&v=32145", "", http.StatusOK},
		{"/ring?n=4&fv=2134", "", http.StatusOK},
		{"/embed?n=7", "", http.StatusBadRequest},
		{"/chaos", clientTrace, http.StatusInternalServerError},
	} {
		req := httptest.NewRequest(http.MethodGet, r.url, nil)
		if r.trace != "" {
			req.Header.Set(serve.TraceHeader, r.trace)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != r.code {
			t.Fatalf("%s: status %d, want %d: %s", r.url, w.Code, r.code, w.Body)
		}
	}
}

// renderTraceShape renders the recorder's spans, then its log lines,
// one sorted block per trace, followed by the registry's values.
func renderTraceShape(fr *obs.FlightRecorder, reg *obs.Registry) string {
	type block struct {
		lines []string
		ids   map[obs.SpanID]int
	}
	blocks := map[obs.TraceID]*block{}
	get := func(tr obs.TraceID) *block {
		b := blocks[tr]
		if b == nil {
			b = &block{ids: map[obs.SpanID]int{}}
			blocks[tr] = b
		}
		return b
	}
	id := func(b *block, s obs.SpanID) string {
		if s == 0 {
			return "-"
		}
		k, ok := b.ids[s]
		if !ok {
			k = len(b.ids) + 1
			b.ids[s] = k
		}
		return fmt.Sprintf("s%d", k)
	}
	for _, ev := range fr.SpanEvents() {
		b := get(ev.Trace)
		b.lines = append(b.lines, fmt.Sprintf("  span %s id=%s parent=%s", ev.Name, id(b, ev.Span), id(b, ev.Parent)))
	}
	for _, rec := range fr.Events() {
		b := get(rec.Trace)
		keys := make([]string, 0, len(rec.Fields))
		for k := range rec.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var fields strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&fields, " %s=%v", k, rec.Fields[k])
		}
		b.lines = append(b.lines, fmt.Sprintf("  log %s %s span=%s%s", rec.Level, rec.Event, id(b, rec.Span), fields.String()))
	}
	var out []string
	for tr, b := range blocks {
		head := "trace"
		switch {
		case tr == 0:
			head = "untraced"
		case tr.String() == clientTrace:
			head = "trace " + clientTrace + " (client)"
		}
		out = append(out, head+"\n"+strings.Join(b.lines, "\n")+"\n")
	}
	sort.Strings(out)

	snap := reg.Snapshot()
	var vals []string
	for name, v := range snap.Counters {
		vals = append(vals, fmt.Sprintf("counter %s %d", name, v))
	}
	for name, v := range snap.Gauges {
		vals = append(vals, fmt.Sprintf("gauge %s %d", name, v))
	}
	for name, h := range snap.Histograms {
		vals = append(vals, fmt.Sprintf("histogram %s count=%d", name, h.Count))
	}
	sort.Strings(vals)
	return strings.Join(out, "") + "values\n" + strings.Join(vals, "\n") + "\n"
}
