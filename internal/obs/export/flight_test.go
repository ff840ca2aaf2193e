package export

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// flightFixture runs one traced operation — a child span, a milestone
// record, a failure — through a registry with a flight recorder, so a
// bundle has all three artifact kinds populated.
func flightFixture(t *testing.T) (*obs.FlightRecorder, obs.TraceID) {
	t.Helper()
	clock := obs.NewManual(time.Unix(100, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	f := obs.NewFlightRecorder(reg, 32, nil, obs.LevelDebug)

	op := reg.StartOp("t.op.run")
	sp := op.Span("t.phase.step")
	clock.Advance(2 * time.Millisecond)
	sp.End()
	op.Log(obs.LevelInfo, "t.milestone", obs.F("k", 1))
	clock.Advance(time.Millisecond)
	op.End()
	return f, op.Trace()
}

// traceSpans returns the names of the complete events a bundle's trace
// files under the given trace id.
func traceSpans(t *testing.T, data []byte, trace obs.TraceID) map[string]bool {
	t.Helper()
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("bundle trace: %v", err)
	}
	names := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Args["trace_id"] == trace.String() {
			names[e.Name] = true
		}
	}
	return names
}

func TestFlightBundleDirRoundTrip(t *testing.T) {
	f, trace := flightFixture(t)
	dir := filepath.Join(t.TempDir(), "flight")
	if err := WriteFlightBundle(dir, f); err != nil {
		t.Fatal(err)
	}

	b, err := ReadFlightBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(f.Events()); len(b.Events) != want {
		t.Errorf("bundle has %d events, recorder holds %d", len(b.Events), want)
	}
	found := false
	for _, rec := range b.Events {
		if rec.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Errorf("no bundle record carries trace %s", trace)
	}
	complete, err := ValidateTrace(b.Trace)
	if err != nil || complete < 2 {
		t.Errorf("bundle trace: %d complete events, err=%v", complete, err)
	}
	if spans := traceSpans(t, b.Trace, trace); !spans["t.op.run"] || !spans["t.phase.step"] {
		t.Errorf("bundle trace does not resolve %s: spans %v", trace, spans)
	}
	page, err := ParseOpenMetrics(b.Metrics)
	if err != nil {
		t.Fatalf("bundle metrics: %v", err)
	}
	if page.Families == 0 {
		t.Errorf("bundle metrics: %d families", page.Families)
	}
	if page.Exemplars == 0 {
		t.Error("bundle metrics carry no exemplars despite a traced op")
	}
}

// The /debug/flight handler streams the same bundle as a tar, and
// ReadFlightBundle accepts the saved stream directly.
func TestFlightBundleTarRoundTrip(t *testing.T) {
	f, trace := flightFixture(t)
	srv := httptest.NewServer(FlightHandler(f))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-tar" {
		t.Errorf("content type %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.tar")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := ReadFlightBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(f.Events()); len(b.Events) != want {
		t.Errorf("tar bundle has %d events, recorder holds %d", len(b.Events), want)
	}
	if spans := traceSpans(t, b.Trace, trace); len(spans) == 0 {
		t.Errorf("tar bundle trace does not resolve %s", trace)
	}
}

// After many operations overfill the ring, the failing one — the most
// recent — is still whole in the auto-dumped bundle: its root span, its
// child spans and its obs.flight.error record, all under its trace.
func TestFlightBundleKeepsFailingTrace(t *testing.T) {
	clock := obs.NewManual(time.Unix(100, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	const capacity = 16
	f := obs.NewFlightRecorder(reg, capacity, nil, obs.LevelDebug)
	dir := filepath.Join(t.TempDir(), "flight")
	f.SetAutoDump(dir, FlightBundleWriter(f))

	runOp := func(fail bool) obs.TraceID {
		op := reg.StartOp("t.op.run")
		for _, name := range []string{"t.phase.a", "t.phase.b"} {
			sp := op.Span(name)
			clock.Advance(time.Millisecond)
			sp.End()
		}
		op.Log(obs.LevelInfo, "t.milestone")
		op.End()
		if fail {
			op.NoteError("t.run", errors.New("boom"))
		}
		return op.Trace()
	}
	first := runOp(false)
	for i := 0; i < 20; i++ {
		runOp(false)
	}
	trace := runOp(true)
	if appended := reg.Counter("obs.flight.spans").Value() + reg.Counter("obs.flight.events").Value(); appended <= 4*capacity {
		t.Fatalf("only %d entries appended; the ring never overflowed", appended)
	}

	b, err := ReadFlightBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	spans := traceSpans(t, b.Trace, trace)
	for _, want := range []string{"t.op.run", "t.phase.a", "t.phase.b"} {
		if !spans[want] {
			t.Errorf("bundle lost span %s of the failing trace; has %v", want, spans)
		}
	}
	var sawError bool
	for _, rec := range b.Events {
		if rec.Trace == trace && rec.Event == "obs.flight.error" {
			sawError = true
		}
		if rec.Trace == first {
			t.Errorf("bundle still holds the first operation's %s; the ring did not evict", rec.Event)
		}
	}
	if !sawError {
		t.Errorf("bundle lost the failing trace's obs.flight.error record: %+v", b.Events)
	}
}

func TestFlightBundleErrors(t *testing.T) {
	if err := WriteFlightBundle(t.TempDir(), nil); err == nil {
		t.Error("nil recorder accepted")
	}
	if _, err := ReadFlightBundle(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing bundle accepted")
	}
	// A directory missing a member is incomplete.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FlightEventsName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightBundle(dir); err == nil {
		t.Error("incomplete bundle dir accepted")
	}
	// A truncated tar is rejected too.
	path := filepath.Join(t.TempDir(), "flight.tar")
	if err := os.WriteFile(path, []byte("not a tar"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightBundle(path); err == nil {
		t.Error("corrupt tar accepted")
	}

	// The handler 404s when no recorder is installed.
	srv := httptest.NewServer(FlightHandler(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("nil-recorder handler returned %d, want 404", resp.StatusCode)
	}
}
