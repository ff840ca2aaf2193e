package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestIDHexJSONRoundTrip(t *testing.T) {
	for _, id := range []TraceID{0, 1, 0xdeadbeefcafe1234, ^TraceID(0)} {
		s := id.String()
		if len(s) != 16 || strings.ToLower(s) != s {
			t.Errorf("TraceID(%d).String() = %q, want 16 lowercase hex digits", id, s)
		}
		data, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var back TraceID
		if err := json.Unmarshal(data, &back); err != nil || back != id {
			t.Errorf("round trip %v -> %s -> %v (err %v)", id, data, back, err)
		}
	}
	var sp SpanID
	if err := json.Unmarshal([]byte(`"00000000000000ff"`), &sp); err != nil || sp != 0xff {
		t.Errorf("SpanID unmarshal: %v err=%v", sp, err)
	}
	if err := sp.UnmarshalJSON([]byte(`"zzz"`)); err == nil {
		t.Error("bad hex accepted")
	}
	// Absent / null ids decode to zero, matching omitempty on the wire.
	if err := sp.UnmarshalJSON([]byte(`null`)); err != nil || sp != 0 {
		t.Errorf("null id: %v err=%v", sp, err)
	}
}

func TestNextIDNonzeroDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 4096; i++ {
		id := nextID()
		if id == 0 {
			t.Fatal("nextID returned 0")
		}
		if seen[id] {
			t.Fatalf("nextID repeated %#x after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestStartOpLinkage checks the causal chain an operation produces:
// every span shares the op's trace id, children point at their parent,
// and the root has no parent.
func TestStartOpLinkage(t *testing.T) {
	clock := NewManual(time.Unix(100, 0))
	reg := NewRegistry()
	reg.SetClock(clock)
	rec := NewFlightRecorder(reg, 16, nil, LevelDebug)

	op := reg.StartOp("t.op.run")
	if op.Trace() == 0 || op.ID() == 0 {
		t.Fatalf("op has zero identity: trace=%v span=%v", op.Trace(), op.ID())
	}
	child := op.Span("t.phase.a")
	grand := child.Span("t.phase.b")
	clock.Advance(time.Millisecond)
	grand.End()
	child.End()
	if d := op.End(); d != time.Millisecond {
		t.Errorf("op duration = %v, want 1ms", d)
	}

	events := rec.SpanEvents()
	if len(events) != 3 {
		t.Fatalf("got %d span events, want 3", len(events))
	}
	byName := map[string]Event{}
	for _, e := range events {
		byName[e.Name] = e
		if e.Trace != op.Trace() {
			t.Errorf("%s trace = %v, want %v", e.Name, e.Trace, op.Trace())
		}
		if e.Span == 0 {
			t.Errorf("%s has no span id", e.Name)
		}
	}
	root, a, b := byName["t.op.run"], byName["t.phase.a"], byName["t.phase.b"]
	if root.Parent != 0 {
		t.Errorf("root parent = %v, want 0", root.Parent)
	}
	if a.Parent != root.Span {
		t.Errorf("child parent = %v, want root %v", a.Parent, root.Span)
	}
	if b.Parent != a.Span {
		t.Errorf("grandchild parent = %v, want child %v", b.Parent, a.Span)
	}
}

// Two ops on the same registry must not share a trace.
func TestStartOpDistinctTraces(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.StartOp("t.op.a"), reg.StartOp("t.op.b")
	if a.Trace() == b.Trace() {
		t.Errorf("two ops share trace %v", a.Trace())
	}
	a.End()
	b.End()
}

// Spans started outside any op keep the legacy untraced behavior, even
// when chained through Span.Span.
func TestUntracedSpanStaysUntraced(t *testing.T) {
	reg := NewRegistry()
	rec := NewFlightRecorder(reg, 8, nil, LevelDebug)
	outer := reg.Span("t.phase.total")
	inner := outer.Span("t.phase.route")
	inner.End()
	outer.End()
	for _, e := range rec.SpanEvents() {
		if e.Trace != 0 || e.Span != 0 || e.Parent != 0 {
			t.Errorf("untraced span %s carries identity: %+v", e.Name, e)
		}
	}
}

func TestOpLogStampsIdentity(t *testing.T) {
	var buf strings.Builder
	reg := NewRegistry()
	NewFlightRecorder(reg, 8, &buf, LevelDebug)

	op := reg.StartOp("t.op.run")
	op.Log(LevelInfo, "t.milestone", F("k", 1))
	reg.Log(LevelInfo, "t.plain")
	child := op.Span("t.phase.a")
	child.Log(LevelInfo, "t.step")
	child.End()
	op.End()

	recs, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Trace != op.Trace() || recs[0].Span != op.ID() {
		t.Errorf("op record identity %v/%v, want %v/%v",
			recs[0].Trace, recs[0].Span, op.Trace(), op.ID())
	}
	if recs[1].Trace != 0 || recs[1].Span != 0 {
		t.Errorf("plain record carries identity: %+v", recs[1])
	}
	// A child span logs under its own id, in the operation's trace.
	if recs[2].Trace != op.Trace() || recs[2].Span != child.ID() {
		t.Errorf("child record identity %v/%v, want %v/%v",
			recs[2].Trace, recs[2].Span, op.Trace(), child.ID())
	}
	// Untraced records must omit the id keys entirely on the wire.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if strings.Contains(lines[1], "trace_id") {
		t.Errorf("untraced line carries trace_id: %s", lines[1])
	}
}

// The disabled operation: StartOp on a nil registry returns the zero
// Span, and every method on it is safe and inert.
func TestOpNilSafety(t *testing.T) {
	var reg *Registry
	op := reg.StartOp("t.op.run")
	if op != (Span{}) {
		t.Fatal("nil registry produced a live op")
	}
	if op.Trace() != 0 || op.ID() != 0 {
		t.Error("nil op has identity")
	}
	op.Span("t.phase.a").End()
	op.Log(LevelError, "t.event", F("k", "v"))
	if op.Enabled(LevelError) {
		t.Error("nil op claims logging is enabled")
	}
	if op.End() != 0 {
		t.Error("nil op reports a duration")
	}
	op.NoteError("t.source", errors.New("boom"))
}

// A failed operation ends its root span and notes the error: the error
// reaches the flight recorder stamped with the root's identity, and the
// root span's histogram observation still completes.
func TestOpFail(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(reg, 8, nil, LevelDebug)
	op := reg.StartOp("t.op.run")
	op.End()
	op.NoteError("t.source", errors.New("boom"))

	snap := reg.Snapshot()
	if got := snap.Counters["obs.flight.errors"]; got != 1 {
		t.Errorf("obs.flight.errors = %d, want 1", got)
	}
	if got := snap.Histograms["t.op.run"].Count; got != 1 {
		t.Errorf("root span histogram count = %d, want 1", got)
	}
	if spans := f.SpanEvents(); len(spans) != 1 || spans[0].Name != "t.op.run" {
		t.Errorf("flight ring spans = %+v, want the root span", spans)
	}
	events := f.Events()
	if len(events) != 1 || events[0].Event != "obs.flight.error" {
		t.Fatalf("flight ring = %+v, want one obs.flight.error", events)
	}
	if events[0].Trace != op.Trace() || events[0].Span != op.ID() {
		t.Errorf("error record identity %v/%v, want %v/%v",
			events[0].Trace, events[0].Span, op.Trace(), op.ID())
	}
}

func TestHistogramExemplars(t *testing.T) {
	var h Histogram
	// Untraced observations never become exemplars.
	h.Observe(10 * time.Millisecond)
	if got := h.Exemplars(); len(got) != 0 {
		t.Fatalf("untraced observation produced exemplars: %+v", got)
	}
	// Fill past capacity with rising durations: the slowest K survive.
	for i := 1; i <= histExemplars+2; i++ {
		h.ObserveTrace(time.Duration(i)*time.Millisecond, TraceID(i))
	}
	ex := h.Exemplars()
	if len(ex) != histExemplars {
		t.Fatalf("got %d exemplars, want %d", len(ex), histExemplars)
	}
	for i, e := range ex {
		want := time.Duration(histExemplars+2-i) * time.Millisecond
		if e.NS != int64(want) {
			t.Errorf("exemplar %d = %v, want %v (slowest first)", i, time.Duration(e.NS), want)
		}
		if e.Trace == 0 {
			t.Errorf("exemplar %d has no trace", i)
		}
	}
	// A fast traced observation must not evict a slower exemplar.
	h.ObserveTrace(time.Microsecond, TraceID(99))
	for _, e := range h.Exemplars() {
		if e.Trace == 99 {
			t.Error("fast observation evicted a slower exemplar")
		}
	}
	// Stats stays exemplar-free (the sampler's alloc-free path); the
	// registry snapshot attaches them.
	if st := h.Stats(); st.Exemplars != nil {
		t.Errorf("Stats carries exemplars: %+v", st.Exemplars)
	}
	reg := NewRegistry()
	op := reg.StartOp("t.op.run")
	op.End()
	if ex := reg.Snapshot().Histograms["t.op.run"].Exemplars; len(ex) != 1 {
		t.Errorf("snapshot exemplars = %+v, want 1", ex)
	}
}

// StartOpTrace continues a caller-supplied trace identity — the header
// round-trip behind starserve's X-Star-Trace — and falls back to a
// fresh id on a zero trace.
func TestStartOpTrace(t *testing.T) {
	reg := NewRegistry()
	rec := NewFlightRecorder(reg, 16, nil, LevelDebug)

	want := TraceID(0xdeadbeefcafe1234)
	op := reg.StartOpTrace("t.op.cont", want)
	if op.Trace() != want {
		t.Fatalf("op trace = %v, want %v", op.Trace(), want)
	}
	child := op.Span("t.phase.a")
	child.End()
	op.End()
	for _, e := range rec.SpanEvents() {
		if e.Trace != want {
			t.Errorf("%s trace = %v, want the supplied id %v", e.Name, e.Trace, want)
		}
	}

	fresh := reg.StartOpTrace("t.op.fresh", 0)
	if fresh.Trace() == 0 {
		t.Error("zero supplied trace did not fall back to a fresh id")
	}
	fresh.End()

	var nilReg *Registry
	if nilReg.StartOpTrace("t.op.nil", want) != (Span{}) {
		t.Error("nil registry should return the zero Span")
	}
}

func TestParseTraceID(t *testing.T) {
	id, err := ParseTraceID("deadbeefcafe1234")
	if err != nil || id != 0xdeadbeefcafe1234 {
		t.Errorf("ParseTraceID hex: %v err=%v", id, err)
	}
	if id, err = ParseTraceID(""); err != nil || id != 0 {
		t.Errorf("empty string: %v err=%v", id, err)
	}
	if _, err = ParseTraceID("not-hex"); err == nil {
		t.Error("malformed id accepted")
	}
	// String() output must round-trip.
	want := TraceID(42)
	got, err := ParseTraceID(want.String())
	if err != nil || got != want {
		t.Errorf("round trip: %v err=%v", got, err)
	}
}
