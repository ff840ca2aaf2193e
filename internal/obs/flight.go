package obs

import (
	"io"
	"sync"
	"time"
)

// FlightRecorder is the registry's event pipeline and always-on black
// box: one bounded ring holding the most recent completed spans and log
// lines, interleaved in arrival order, plus access to the registry for
// a metrics snapshot, so a post-mortem bundle (NDJSON + trace +
// metrics) can be produced at the moment of failure rather than
// reconstructed after it.
//
// Once installed by NewFlightRecorder it is fed under one lock by
// Span.End (every completed span), Registry.Log and Op.Log (log lines
// at or above the recorder's level) and Registry.NoteError (failures,
// which also trigger the armed auto-dump). The ring overwrites oldest
// first whatever an entry's kind, so memory is bounded by the capacity
// chosen at construction. The Perfetto export reads its spans
// (SpanEvents), the NDJSON views read its log lines (Events); an
// optional writer additionally receives every log line as NDJSON the
// moment it is appended — the -events-out stream — and a recorder
// without one never encodes JSON.
//
// Metrics (see the README glossary): obs.flight.events and
// obs.flight.spans count log lines and spans appended,
// obs.flight.errors counts NoteError calls, obs.flight.dumps counts
// bundles written.
type FlightRecorder struct {
	reg *Registry
	min Level
	w   io.Writer

	mu      sync.Mutex
	ring    []entry
	n       int // filled slots
	next    int // next write index
	autoDir string
	dump    func(dir string) error

	cEvents *Counter
	cSpans  *Counter
	cErrors *Counter
	cDumps  *Counter
}

// entry is one ring slot: a log line, or a completed span stored in
// the same fields (T is its start, Event its name) plus its duration
// and parent.
type entry struct {
	Record
	dur    int64
	parent SpanID
	span   bool
}

// NewFlightRecorder builds a recorder holding the last capacity spans
// and log lines (<= 0 means 1024), keeping log lines at or above min
// and writing each as NDJSON to w when w is non-nil, installs it on
// the registry and its children, and returns it. A nil registry
// yields a nil recorder, on which every method is a no-op.
func NewFlightRecorder(r *Registry, capacity int, w io.Writer, min Level) *FlightRecorder {
	if r == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = 1024
	}
	f := &FlightRecorder{
		reg:     r,
		min:     min,
		w:       w,
		ring:    make([]entry, capacity),
		cEvents: r.Counter("obs.flight.events"),
		cSpans:  r.Counter("obs.flight.spans"),
		cErrors: r.Counter("obs.flight.errors"),
		cDumps:  r.Counter("obs.flight.dumps"),
	}
	r.setFlight(f)
	return f
}

// Registry returns the registry the recorder snapshots metrics from.
func (f *FlightRecorder) Registry() *Registry {
	if f == nil {
		return nil
	}
	return f.reg
}

// slot claims the next ring slot for the caller to overwrite, evicting
// the oldest entry once the ring is full; callers hold f.mu.
func (f *FlightRecorder) slot() *entry {
	e := &f.ring[f.next]
	if f.next++; f.next == len(f.ring) {
		f.next = 0
	}
	if f.n < len(f.ring) {
		f.n++
	}
	return e
}

// noteSpan appends one completed span (the Span.End feed). The slot is
// written field by field: a composite literal would be built on the
// stack and block-copied, which costs this hot path measurably.
func (f *FlightRecorder) noteSpan(s *Span, dur time.Duration) {
	f.mu.Lock()
	e := f.slot()
	e.T, e.Level, e.Event, e.Trace, e.Span, e.Fields = s.start.UnixNano(), "", s.name, s.trace, s.id, nil
	e.dur, e.parent, e.span = int64(dur), s.parent, true
	f.mu.Unlock()
	f.cSpans.Inc()
}

// log appends one log line emitted on registry r, stamped with r's
// labels (call-site fields win a key collision), the operation
// identity and r's clock. The NDJSON write and the ring append share
// the lock, so the stream and the ring agree on order and concurrent
// lines never interleave mid-line.
func (f *FlightRecorder) log(r *Registry, trace TraceID, span SpanID, level Level, event string, fields []Field) {
	if f == nil || level < f.min {
		return
	}
	rec := Record{
		T:     r.Clock().Now().UnixNano(),
		Level: level.String(),
		Event: event,
		Trace: trace,
		Span:  span,
	}
	if n := len(r.labels) + len(fields); n > 0 {
		rec.Fields = make(map[string]interface{}, n)
		for _, l := range r.labels {
			rec.Fields[l.Key] = l.Value
		}
		for _, fd := range fields {
			rec.Fields[fd.K] = fd.V
		}
	}
	var line []byte
	if f.w != nil {
		line = encodeRecord(rec)
	}
	f.mu.Lock()
	if line != nil {
		_, _ = f.w.Write(line)
	}
	*f.slot() = entry{Record: rec}
	f.mu.Unlock()
	f.cEvents.Inc()
}

// each calls fn on every retained entry, oldest first, under the lock.
func (f *FlightRecorder) each(fn func(e *entry)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := f.next - f.n + len(f.ring)
	for i := 0; i < f.n; i++ {
		fn(&f.ring[(start+i)%len(f.ring)])
	}
}

// Events returns the retained log lines, oldest first.
func (f *FlightRecorder) Events() []Record {
	if f == nil {
		return nil
	}
	var out []Record
	f.each(func(e *entry) {
		if !e.span {
			out = append(out, e.Record)
		}
	})
	return out
}

// SpanEvents returns the retained completed spans, oldest first.
func (f *FlightRecorder) SpanEvents() []Event {
	if f == nil {
		return nil
	}
	var out []Event
	f.each(func(e *entry) {
		if e.span {
			out = append(out, Event{
				Name: e.Event, StartNS: e.T, DurNS: e.dur,
				Trace: e.Trace, Span: e.Span, Parent: e.parent,
			})
		}
	})
	return out
}

// SetAutoDump arms automatic post-mortem capture: on the next
// NoteError, dump(dir) runs once per error. The dump function lives in
// internal/obs/export (WriteFlightBundle via FlightBundleWriter); it is
// a parameter here to keep this package dependency-free. An empty dir
// or nil dump disarms.
func (f *FlightRecorder) SetAutoDump(dir string, dump func(dir string) error) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.autoDir = dir
	f.dump = dump
	f.mu.Unlock()
}

// NoteError records an operation failure on the installed flight
// recorder: it bumps obs.flight.errors, appends an obs.flight.error
// log line carrying the failing identity and this registry's labels,
// and, when armed, writes the post-mortem bundle. err == nil, a nil
// registry and a registry without a recorder are no-ops.
func (r *Registry) NoteError(trace TraceID, span SpanID, source string, err error) {
	if r == nil || err == nil {
		return
	}
	f := r.flight.Load()
	if f == nil {
		return
	}
	f.cErrors.Inc()
	f.log(r, trace, span, LevelError, "obs.flight.error",
		[]Field{F("source", source), F("error", err.Error())})
	f.mu.Lock()
	dir, dump := f.autoDir, f.dump
	f.mu.Unlock()
	if dir == "" || dump == nil {
		return
	}
	if dumpErr := dump(dir); dumpErr == nil {
		f.cDumps.Inc()
	}
}

// Dump writes the bundle on demand through the given writer (the same
// function SetAutoDump arms) and counts it. It backs the CLIs'
// -flight-dump flag for successful runs, where NoteError never fires.
func (f *FlightRecorder) Dump(dir string, dump func(dir string) error) error {
	if f == nil || dump == nil {
		return nil
	}
	if err := dump(dir); err != nil {
		return err
	}
	f.cDumps.Inc()
	return nil
}
