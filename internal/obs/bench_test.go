package obs

import (
	"io"
	"testing"
	"time"
)

// The disabled path must be a few nanoseconds and allocation-free:
// instrumented code calls through nil metrics unconditionally, so this
// is the price every un-observed run pays.

func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("phase").End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("phase").End()
	}
}

// BenchmarkSpanRecorded prices span End with a flight recorder
// installed: the histogram observation plus the ring append.
func BenchmarkSpanRecorded(b *testing.B) {
	r := NewRegistry()
	NewFlightRecorder(r, 1024, nil, LevelDebug)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("phase").End()
	}
}

// BenchmarkSpanEnabledWithOp prices the traced path: a child span off a
// live operation, whose End also feeds the slowest-K exemplar reservoir.
func BenchmarkSpanEnabledWithOp(b *testing.B) {
	r := NewRegistry()
	op := r.StartOp("op")
	defer op.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op.Span("phase").End()
	}
}

// BenchmarkFamilyWith prices a live labeled lookup: MakeLabels over the
// variadic pairs, the canonical-key encode, and the slot-map hit. Hot
// paths that care pre-resolve the handle once instead (see
// BenchmarkFamilyWithHeld). The disabled path, BenchmarkFamilyWithDisabled,
// must not allocate; TestVecDisabledAllocs asserts it.
func BenchmarkFamilyWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench.family", "n", "mode")
	v.With("n", "6", "mode", "guaranteed").Inc() // materialize the slot
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("n", "6", "mode", "guaranteed").Inc()
	}
}

// BenchmarkFamilyWithHeld is the pre-resolved pattern: With once, hold
// the *Counter, pay only the atomic add per operation.
func BenchmarkFamilyWithHeld(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("bench.family", "n", "mode").With("n", "6", "mode", "guaranteed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkFamilyWithDisabled is the nil-vec fast path the enabled
// numbers are read against; it must report 0 allocs/op.
func BenchmarkFamilyWithDisabled(b *testing.B) {
	var v *CounterVec
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("n", "6", "mode", "guaranteed").Inc()
	}
}

// BenchmarkEventLogRecord prices one structured log line through the
// flight recorder's NDJSON writer: the field map, the marshal, the
// single Write and the ring append.
func BenchmarkEventLogRecord(b *testing.B) {
	r := NewRegistry()
	NewFlightRecorder(r, 1024, io.Discard, LevelInfo)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Log(LevelInfo, "bench.event", F("i", i))
	}
}
