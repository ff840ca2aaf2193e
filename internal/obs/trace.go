package obs

import "time"

// Event is one completed span: a named phase with its start instant and
// duration in nanoseconds. Spans of an operation also carry the
// trace identity — Trace/Span/Parent are zero ("", omitted from JSON)
// for registry-level spans outside any operation.
type Event struct {
	Name    string  `json:"name"`
	StartNS int64   `json:"start_unix_ns"`
	DurNS   int64   `json:"dur_ns"`
	Trace   TraceID `json:"trace_id,omitempty"`
	Span    SpanID  `json:"span_id,omitempty"`
	Parent  SpanID  `json:"parent_span_id,omitempty"`
}

// Span measures one named phase. It is a plain value — starting a span
// on a nil registry yields the zero Span, whose End is a no-op — so
// disabled tracing allocates nothing. An operation is its root span
// (Registry.StartOp); its descendants, opened through Span.Span, carry
// its trace id and their parent's span id, which End stamps onto the
// emitted Event.
type Span struct {
	r      *Registry
	h      *Histogram
	name   string
	start  time.Time
	trace  TraceID
	id     SpanID
	parent SpanID
}

// Span starts a span on the registry's clock; its duration lands in
// the histogram of the same name, and an Event goes to the flight
// recorder when one is installed. The span is untraced (no trace/span
// ids); use Registry.StartOp and Span.Span for causal telemetry.
func (r *Registry) Span(name string) Span {
	return r.span(name, 0, 0, 0)
}

// span is the common constructor behind Span, StartOp and child spans.
func (r *Registry) span(name string, trace TraceID, id SpanID, parent SpanID) Span {
	if r == nil {
		return Span{}
	}
	return Span{
		r: r, h: r.Histogram(name), name: name, start: r.Clock().Now(),
		trace: trace, id: id, parent: parent,
	}
}

// Span starts a child span: same trace, fresh span id, s as parent. On
// an untraced or zero span the child is a plain registry span (or a
// zero Span when the receiver is zero), so call sites need no guards.
func (s Span) Span(name string) Span {
	if s.r == nil {
		return Span{}
	}
	if s.trace == 0 {
		return s.r.Span(name)
	}
	return s.r.span(name, s.trace, SpanID(nextID()), s.id)
}

// Trace returns the span's trace id (zero when untraced).
func (s Span) Trace() TraceID { return s.trace }

// ID returns the span's own id (zero when untraced).
func (s Span) ID() SpanID { return s.id }

// End completes the span and returns its duration (0 for a zero Span).
// Traced spans record a slowest-K exemplar on their histogram; the
// completed span is appended to the flight recorder's ring when one is
// installed (otherwise End costs one more nil check).
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := Since(s.r.Clock(), s.start)
	if s.trace != 0 {
		s.h.ObserveTrace(d, s.trace)
	} else {
		s.h.Observe(d)
	}
	if f := s.r.flight.Load(); f != nil {
		f.noteSpan(&s, d)
	}
	return d
}
