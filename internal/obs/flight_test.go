package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFlightNilSafe(t *testing.T) {
	if f := NewFlightRecorder(nil, 8, nil, LevelDebug); f != nil {
		t.Fatal("nil registry produced a live recorder")
	}
	var f *FlightRecorder
	f.log(NewRegistry(), 1, 2, LevelError, "t.event", nil)
	f.SetAutoDump("x", func(string) error { return nil })
	if f.Events() != nil || f.SpanEvents() != nil || f.Registry() != nil {
		t.Error("nil recorder leaks state")
	}
	if err := f.Dump("x", func(string) error { return errors.New("no") }); err != nil {
		t.Error("nil recorder Dump errored")
	}
	Span{}.NoteError("t.source", errors.New("boom"))
	Span{r: NewRegistry(), trace: 1, id: 2}.NoteError("t.source", errors.New("boom")) // no recorder: a no-op
}

// The ring must be bounded and oldest-first: after overfilling, only
// the most recent capacity entries survive, in arrival order, while the
// NDJSON writer has seen every line.
func TestFlightRingsOverwriteOldest(t *testing.T) {
	var buf strings.Builder
	reg := NewRegistry()
	clock := NewManual(time.Unix(10, 0))
	reg.SetClock(clock)
	f := NewFlightRecorder(reg, 8, &buf, LevelDebug)

	for i := 0; i < 6; i++ {
		reg.Log(LevelInfo, "t.event", F("i", i))
		sp := reg.Span("t.phase.step")
		clock.Advance(time.Millisecond)
		sp.End()
	}

	// Twelve alternating entries through eight slots: the last four of
	// each kind survive.
	events := f.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d log lines, want 4", len(events))
	}
	// The ring holds in-memory records, so field values keep their Go
	// types (int here, not JSON's float64).
	for i, rec := range events {
		if got := rec.Fields["i"]; got != i+2 {
			t.Errorf("ring log line %d has i = %v, want %d (oldest-first window)", i, got, i+2)
		}
	}
	spans := f.SpanEvents()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNS <= spans[i-1].StartNS {
			t.Errorf("ring spans not oldest-first: %v then %v", spans[i-1].StartNS, spans[i].StartNS)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["obs.flight.events"]; got != 6 {
		t.Errorf("obs.flight.events = %d, want 6", got)
	}
	if got := snap.Counters["obs.flight.spans"]; got != 6 {
		t.Errorf("obs.flight.spans = %d, want 6", got)
	}
	if len(snap.Events) != 4 {
		t.Errorf("snapshot carries %d spans, want the ring's 4", len(snap.Events))
	}
	recs, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil || len(recs) != 6 {
		t.Errorf("NDJSON writer saw %d lines (err %v), want all 6", len(recs), err)
	}
}

// Spans and log lines share one ring, so eviction is strictly by age:
// an old entry goes first whatever its kind, and a burst of one kind
// pushes out the other.
func TestFlightRingEvictsOldestWhateverKind(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(reg, 5, nil, LevelDebug)
	span := func(name string) { reg.Span(name).End() }
	logLine := func(name string) { reg.Log(LevelInfo, name) }
	names := func() (logs, spans []string) {
		for _, r := range f.Events() {
			logs = append(logs, r.Event)
		}
		for _, e := range f.SpanEvents() {
			spans = append(spans, e.Name)
		}
		return logs, spans
	}
	check := func(step string, wantLogs, wantSpans string) {
		t.Helper()
		logs, spans := names()
		if got := strings.Join(logs, ","); got != wantLogs {
			t.Errorf("%s: ring log lines %q, want %q", step, got, wantLogs)
		}
		if got := strings.Join(spans, ","); got != wantSpans {
			t.Errorf("%s: ring spans %q, want %q", step, got, wantSpans)
		}
	}

	// s0 l0 l1 s1 s2 l2 s3: seven entries, five slots — s0 and l0 go.
	span("s0")
	logLine("l0")
	logLine("l1")
	span("s1")
	span("s2")
	logLine("l2")
	span("s3")
	check("mixed overfill", "l1,l2", "s1,s2,s3")

	// Three more log lines evict l1, s1 and s2 — spans included.
	logLine("l3")
	logLine("l4")
	logLine("l5")
	check("log burst", "l2,l3,l4,l5", "s3")

	// Five spans replace everything.
	for _, s := range []string{"s4", "s5", "s6", "s7", "s8"} {
		span(s)
	}
	check("span burst", "", "s4,s5,s6,s7,s8")
}

// NoteError with no NDJSON writer must still leave evidence in the
// ring, stamped with the failing identity.
func TestFlightNoteErrorWithoutLog(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(reg, 8, nil, LevelError)
	op := Span{r: reg, trace: 7, id: 9}
	op.NoteError("t.source", errors.New("boom"))
	op.NoteError("t.source", nil) // nil error is a no-op

	events := f.Events()
	if len(events) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(events))
	}
	rec := events[0]
	if rec.Event != "obs.flight.error" || rec.Trace != 7 || rec.Span != 9 || rec.Level != "error" {
		t.Errorf("error record = %+v", rec)
	}
	if rec.Fields["source"] != "t.source" || rec.Fields["error"] != "boom" {
		t.Errorf("error fields = %+v", rec.Fields)
	}
	if got := reg.Snapshot().Counters["obs.flight.errors"]; got != 1 {
		t.Errorf("obs.flight.errors = %d, want 1", got)
	}
}

func TestFlightAutoDump(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(reg, 8, nil, LevelDebug)
	op := Span{r: reg, trace: 1, id: 2}

	dumps := 0
	var gotDir string
	f.SetAutoDump("post", func(dir string) error {
		dumps++
		gotDir = dir
		return nil
	})
	op.NoteError("t.source", errors.New("boom"))
	if dumps != 1 || gotDir != "post" {
		t.Fatalf("auto-dump ran %d times into %q, want once into post", dumps, gotDir)
	}

	// A failing dump must not count.
	f.SetAutoDump("post", func(string) error { return errors.New("disk full") })
	op.NoteError("t.source", errors.New("boom"))
	if got := reg.Snapshot().Counters["obs.flight.dumps"]; got != 1 {
		t.Errorf("obs.flight.dumps = %d, want 1", got)
	}

	// Disarmed: no dump on error.
	f.SetAutoDump("", nil)
	op.NoteError("t.source", errors.New("boom"))
	if dumps != 1 {
		t.Errorf("disarmed recorder still dumped")
	}

	// On-demand Dump counts on success and propagates failure.
	if err := f.Dump("post", func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Dump("post", func(string) error { return errors.New("no") }); err == nil {
		t.Error("Dump swallowed the writer's error")
	}
	if got := reg.Snapshot().Counters["obs.flight.dumps"]; got != 2 {
		t.Errorf("obs.flight.dumps = %d, want 2", got)
	}
}
