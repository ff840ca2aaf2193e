package export

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// spanEvents records two real spans through a registry on a manual
// clock, giving deterministic starts and durations.
func spanEvents(t *testing.T) []obs.Event {
	t.Helper()
	clock := obs.NewManual(time.Unix(100, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	rec := obs.NewFlightRecorder(reg, 16, nil, obs.LevelDebug)

	outer := reg.Span("t.phase.total")
	clock.Advance(3 * time.Millisecond)
	inner := reg.Span("t.phase.route")
	clock.Advance(2 * time.Millisecond)
	inner.End()
	outer.End()
	return rec.SpanEvents()
}

func TestWriteTrace(t *testing.T) {
	events := spanEvents(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}

	complete, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("our own trace does not validate: %v\n%s", err, buf.String())
	}
	if complete != 2 {
		t.Fatalf("complete events = %d, want 2", complete)
	}

	var tr Trace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	byName := map[string]TraceEvent{}
	for _, e := range tr.TraceEvents {
		byName[e.Name] = e
	}
	total, route := byName["t.phase.total"], byName["t.phase.route"]
	if total.Ph != "X" || route.Ph != "X" {
		t.Fatalf("events are not complete-phase: %+v", tr.TraceEvents)
	}
	// Rebased: the outer span starts at 0µs; the inner starts 3ms later
	// and lasts 2ms; the outer lasts 5ms.
	if total.TS != 0 || total.Dur != 5000 {
		t.Errorf("outer span ts/dur = %v/%v µs, want 0/5000", total.TS, total.Dur)
	}
	if route.TS != 3000 || route.Dur != 2000 {
		t.Errorf("inner span ts/dur = %v/%v µs, want 3000/2000", route.TS, route.Dur)
	}
}

func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// An empty run must still produce a loadable document with a
	// traceEvents array, not JSON null.
	if n, err := ValidateTrace(buf.Bytes()); err != nil || n != 0 {
		t.Fatalf("empty trace: n=%d err=%v\n%s", n, err, buf.String())
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"missing array": `{"displayTimeUnit":"ms"}`,
		"missing name":  `{"traceEvents":[{"ph":"X","ts":0,"dur":1}]}`,
		"missing ph":    `{"traceEvents":[{"name":"a","ts":0,"dur":1}]}`,
		"negative ts":   `{"traceEvents":[{"name":"a","ph":"X","ts":-5,"dur":1}]}`,
		"missing dur":   `{"traceEvents":[{"name":"a","ph":"X","ts":0}]}`,
	}
	for label, text := range cases {
		if _, err := ValidateTrace([]byte(text)); err == nil {
			t.Errorf("%s: validator accepted %q", label, text)
		}
	}
	// Non-complete phases are allowed and not counted.
	n, err := ValidateTrace([]byte(`{"traceEvents":[{"name":"m","ph":"M"},{"name":"a","ph":"X","ts":1,"dur":2}]}`))
	if err != nil || n != 1 {
		t.Errorf("mixed-phase trace: n=%d err=%v", n, err)
	}
}

// TestWriteTraceCausality exercises the causal rendering: one band of
// tids per trace labeled by thread_name metadata, contained spans
// nesting in the same band, parent → child flow arrows, and args
// carrying the span and trace identity.
func TestWriteTraceCausality(t *testing.T) {
	clock := obs.NewManual(time.Unix(100, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	rec := obs.NewFlightRecorder(reg, 16, nil, obs.LevelDebug)

	op := reg.StartOp("t.op.run")
	child := op.Span("t.phase.a")
	clock.Advance(2 * time.Millisecond)
	child.End()
	clock.Advance(time.Millisecond)
	op.Done()
	plain := reg.Span("t.phase.plain")
	clock.Advance(time.Millisecond)
	plain.End()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec.SpanEvents()); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("causal trace does not validate: %v\n%s", err, buf.String())
	}

	var tr Trace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	byName := map[string]TraceEvent{}
	var bands []string
	var flowS, flowF []TraceEvent
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "X":
			byName[e.Name] = e
		case "M":
			if e.Name == "thread_name" {
				bands = append(bands, e.Args["name"])
			}
		case "s":
			flowS = append(flowS, e)
		case "f":
			flowF = append(flowF, e)
		}
	}

	root, a := byName["t.op.run"], byName["t.phase.a"]
	if root.Args["trace_id"] != op.Trace().String() || a.Args["trace_id"] != op.Trace().String() {
		t.Errorf("traced spans missing trace_id args: root=%v a=%v", root.Args, a.Args)
	}
	if a.Args["parent_span_id"] != op.SpanID().String() {
		t.Errorf("child parent_span_id = %q, want %q", a.Args["parent_span_id"], op.SpanID())
	}
	if root.TID != a.TID {
		t.Errorf("contained child on tid %d, parent on %d — should nest in one lane", a.TID, root.TID)
	}
	if byName["t.phase.plain"].TID == root.TID {
		t.Error("untraced span shares the traced band")
	}
	if byName["t.phase.plain"].Args != nil {
		t.Errorf("untraced span carries args: %v", byName["t.phase.plain"].Args)
	}

	wantBands := map[string]bool{"trace " + op.Trace().String(): true, "untraced": true}
	for _, b := range bands {
		delete(wantBands, b)
	}
	if len(wantBands) != 0 {
		t.Errorf("missing band labels %v (got %v)", wantBands, bands)
	}

	if len(flowS) != 1 || len(flowF) != 1 {
		t.Fatalf("flow events: %d starts, %d finishes, want 1 each", len(flowS), len(flowF))
	}
	if flowS[0].ID != child.ID().String() || flowF[0].ID != child.ID().String() {
		t.Errorf("flow ids %q/%q, want child span %q", flowS[0].ID, flowF[0].ID, child.ID())
	}
	if flowS[0].TID != root.TID || flowF[0].TID != a.TID {
		t.Errorf("flow endpoints on tids %d→%d, want %d→%d", flowS[0].TID, flowF[0].TID, root.TID, a.TID)
	}
	if flowF[0].BP != "e" {
		t.Errorf("flow finish bp = %q, want \"e\" (bind to enclosing slice)", flowF[0].BP)
	}

	if root.Args["span_id"] != op.SpanID().String() || a.Args["span_id"] != child.ID().String() {
		t.Errorf("span_id args root=%q child=%q, want %q and %q",
			root.Args["span_id"], a.Args["span_id"], op.SpanID(), child.ID())
	}
}

// Siblings that partially overlap must land on different lanes of the
// same band — a single trace_event lane cannot render a partial overlap.
func TestWriteTracePartialOverlapLanes(t *testing.T) {
	events := []obs.Event{
		{Name: "t.a", StartNS: 0, DurNS: 3000, Trace: 5, Span: 1},
		{Name: "t.b", StartNS: 2000, DurNS: 3000, Trace: 5, Span: 2},
	}
	tr := NewTrace(events)
	var a, b TraceEvent
	for _, e := range tr.TraceEvents {
		switch e.Name {
		case "t.a":
			a = e
		case "t.b":
			b = e
		}
	}
	if a.TID == b.TID {
		t.Errorf("partially overlapping siblings share tid %d", a.TID)
	}
}
