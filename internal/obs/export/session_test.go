package export

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// With no registry-backed flag set the session builds no registry and
// Close writes and prints nothing.
func TestSessionOffIsInert(t *testing.T) {
	var out bytes.Buffer
	s, err := StartSession(SessionConfig{Name: "session-off"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry() != nil {
		t.Error("registry built with telemetry off")
	}
	if err := s.Close(); err != nil || out.Len() != 0 {
		t.Errorf("Close: err=%v, printed %q", err, out.String())
	}
}

// Close writes every artifact in the documented order, each with its
// confirmation line, and the events file matches the bundle's log. The
// events file is rewritten, not appended to: a stale line is gone.
func TestSessionArtifactsInOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := SessionConfig{
		Name:         "session-order",
		MetricsJSON:  filepath.Join(dir, "m.json"),
		EventsOut:    filepath.Join(dir, "e.ndjson"),
		FlightDump:   filepath.Join(dir, "flight"),
		SeriesJSON:   filepath.Join(dir, "s.json"),
		SeriesPeriod: time.Hour,
		MemProfile:   filepath.Join(dir, "mem.pprof"),
	}
	const stale = `{"msg":"stale.event.from.an.earlier.run"}` + "\n"
	if err := os.WriteFile(cfg.EventsOut, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s, err := StartSession(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	s.Registry().Log(obs.LevelInfo, "t.session.event", obs.F("k", 1))
	s.Registry().Span("t.session.span").End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := "heap profile written to " + cfg.MemProfile + "\n" +
		"metrics written to " + cfg.MetricsJSON + "\n" +
		"series written to " + cfg.SeriesJSON + "\n" +
		"flight bundle written to " + cfg.FlightDump + "\n"
	if out.String() != want {
		t.Errorf("confirmations:\n%s\nwant:\n%s", out.String(), want)
	}
	events, err := os.ReadFile(cfg.EventsOut)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := ReadFlightBundle(cfg.FlightDump)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(events), "\n"); n != 1 || len(bundle.Events) != 1 {
		t.Errorf("events file has %d lines, bundle %d events; want 1 each", n, len(bundle.Events))
	}
	if strings.Contains(string(events), "stale.event") {
		t.Errorf("events file kept the earlier run's line:\n%s", events)
	}
	if n, err := ValidateTrace(bundle.Trace); err != nil || n != 1 {
		t.Errorf("bundle trace: %d spans, err=%v", n, err)
	}
}

// The debug server serves the registry under cfg.Name, /metrics and
// /debug/flight until Close.
func TestSessionDebugServer(t *testing.T) {
	var out bytes.Buffer
	s, err := StartSession(SessionConfig{Name: "session-debug", DebugAddr: "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := strings.Cut(strings.TrimPrefix(out.String(), "debug server listening on http://"), "/")
	for path, want := range map[string]string{
		"/debug/vars": `"session-debug"`, "/metrics": "# EOF", "/debug/flight": FlightTraceName,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), want) {
			t.Errorf("%s lacks %q", path, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("debug server still up after Close")
	}
}

// A failed start releases what it had opened: the CPU profile stops,
// so another can start.
func TestSessionFailedStartReleases(t *testing.T) {
	dir := t.TempDir()
	_, err := StartSession(SessionConfig{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		EventsOut:  filepath.Join(dir, "missing", "e.ndjson"),
	}, io.Discard)
	if err == nil {
		t.Fatal("events file in a missing directory accepted")
	}
	stop, err := prof.StartCPUProfile(filepath.Join(dir, "again.pprof"))
	if err != nil {
		t.Fatalf("CPU profile left running: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
