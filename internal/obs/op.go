package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// TraceID identifies one operation (an embed, a repair, a simulator
// step) across every span and event it produces. Zero means "untraced":
// telemetry emitted outside any operation context.
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// String renders the id as 16 lowercase hex digits, the wire form used
// in NDJSON records, OpenMetrics exemplars and Perfetto args.
func (t TraceID) String() string { return idHex(uint64(t)) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return idHex(uint64(s)) }

func idHex(v uint64) string {
	var buf [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[:])
}

func idFromHex(data []byte) (uint64, error) {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	if s == "" || s == "null" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace/span id %q: %w", s, err)
	}
	return v, nil
}

// ParseTraceID parses the 16-hex-digit wire form of a trace id (the
// X-Star-Trace header, NDJSON records, exposition exemplars). An empty
// string parses to the zero (untraced) id; malformed input returns an
// error and the zero id, so callers can fall back to a fresh trace.
func ParseTraceID(s string) (TraceID, error) {
	v, err := idFromHex([]byte(s))
	if err != nil {
		return 0, err
	}
	return TraceID(v), nil
}

// MarshalJSON writes the id as a quoted hex string, so NDJSON consumers
// never lose precision to float64 rounding.
func (t TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + idHex(uint64(t)) + `"`), nil
}

// UnmarshalJSON reads a quoted (or bare) hex id.
func (t *TraceID) UnmarshalJSON(data []byte) error {
	v, err := idFromHex(data)
	*t = TraceID(v)
	return err
}

// MarshalJSON writes the id as a quoted hex string.
func (s SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + idHex(uint64(s)) + `"`), nil
}

// UnmarshalJSON reads a quoted (or bare) hex id.
func (s *SpanID) UnmarshalJSON(data []byte) error {
	v, err := idFromHex(data)
	*s = SpanID(v)
	return err
}

// idState seeds the process-wide id sequence. Ids must be unique within
// a process and stable across runs with the same call sequence (the
// simulator's determinism guarantee); a scrambled counter gives both
// without consulting the wall clock or math/rand.
var idState uint64

// nextID returns the next nonzero id: a splitmix64 step over an atomic
// counter, so concurrent callers never collide and ids are spread over
// the full 64-bit space rather than clustering near zero.
func nextID() uint64 {
	x := atomic.AddUint64(&idState, 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// StartOp opens a traced operation: its root span, named name, under a
// fresh TraceID (its duration lands in the histogram of the same name,
// like any span). The operation is threaded explicitly, as a Span
// parameter, through the layers it crosses — embedder, repair,
// simulator, request handler — so causality needs no context.Context
// plumbing: child spans come from Span.Span, log lines from Span.Log,
// a failure is noted with Span.NoteError, and the caller ends the
// operation with End. On a nil registry StartOp returns the zero Span,
// the disabled operation, whose every method is a no-op.
func (r *Registry) StartOp(name string) Span {
	return r.StartOpTrace(name, 0)
}

// StartOpTrace is StartOp under a caller-supplied trace identity — the
// continuation of a trace that began outside this process, such as an
// X-Star-Trace request header or a parent job id. Every span and
// log line of the operation carries the given trace id, so a
// client-reported id reconstructs the server-side timeline end to end.
// A zero trace falls back to a fresh id, making StartOpTrace(name, 0)
// identical to StartOp(name).
func (r *Registry) StartOpTrace(name string, trace TraceID) Span {
	if r == nil {
		return Span{}
	}
	if trace == 0 {
		trace = TraceID(nextID())
	}
	return r.span(name, trace, SpanID(nextID()), 0)
}
