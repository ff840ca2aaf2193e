// Package obs is the repository's zero-dependency observability layer:
// atomic counters and gauges, log-bucketed timing histograms with
// p50/p95/max, span-style phase tracing, structured log lines, and an
// injectable clock. It exists so the embedding pipeline — an O(n!)
// construction whose junction backtracks and per-phase costs are
// otherwise invisible — can be measured without perturbing it.
//
// A Registry keeps every metric in one store of named families. A
// family is a kind (counter, gauge or histogram), a set of label keys
// and one slot per label set; a plain metric is a family with no keys,
// whose single slot exists from the start. Visit is the one walk over
// the store: the export Sampler, Snapshot and every exporter built on
// it read the registry through it.
//
// Completed spans and log lines have one destination: the optional
// FlightRecorder, a bounded ring that the Perfetto export, the NDJSON
// event stream, metrics snapshots and post-mortem bundles all read.
//
// Every API is nil-safe: methods on a nil *Registry, *Counter, *Gauge
// or *Histogram, and End on a zero Span, are no-ops costing a pointer
// test and a return. Instrumented hot paths therefore carry no
// configuration branches of their own; they call through unconditionally
// and pay a few nanoseconds when observation is disabled (verified by
// BenchmarkObsDisabled in internal/core and the benchmarks here).
//
// Metric names are dotted paths ("core.phase.separation",
// "core.route.blocks"); the glossary lives in the README's
// Observability section. Snapshots serialize to JSON via WriteJSON and
// publish live through expvar (PublishExpvar, StartDebugServer).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter discards all operations.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil *Gauge discards all operations.
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// Registry names and owns a set of metrics. It has one store: a map
// from name to family and the same families in creation order. A plain
// metric (Counter, Gauge, Histogram) is a family with no label keys;
// CounterVec, GaugeVec and HistogramVec are families with keys. Metrics
// are created lazily on first access and live for the registry's
// lifetime; accessors on a nil *Registry return nil metrics, so a
// single optional *Registry switches a whole subsystem's
// instrumentation on or off.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	fams   []*family                      // creation order (append-only)
	clock  atomic.Pointer[clockBox]       // nil reads Wall
	flight atomic.Pointer[FlightRecorder] // nil until NewFlightRecorder
}

// clockBox holds the registry's Clock, so that every span reads it with
// one atomic load instead of the registry mutex. An atomic.Value would
// panic when SetClock stores a second concrete Clock type.
type clockBox struct{ Clock }

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry { return &Registry{} }

// SetClock replaces the registry's time source (nil restores Wall).
// Spans started before the switch measure across both clocks.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	if c == nil {
		r.clock.Store(nil)
		return
	}
	r.clock.Store(&clockBox{c})
}

// Clock returns the registry's time source; a nil registry reads Wall.
func (r *Registry) Clock() Clock {
	if r == nil {
		return Wall
	}
	if b := r.clock.Load(); b != nil {
		return b.Clock
	}
	return Wall
}

// Flight returns the installed flight recorder; nil (a no-op recorder)
// when none is installed or the registry is nil.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}

// family returns the named family, creating it with kind and keys on
// first use. Declaring the name again as another kind or with another
// key set is a bug worth surfacing, not silently merging: it records
// the family's first error (see VecErrors) and returns nil.
func (r *Registry) family(name, kind string, keys []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = newFamily(name, kind, keys)
		if r.byName == nil {
			r.byName = make(map[string]*family)
		}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind || !slices.Equal(sortedKeys(keys), f.keys) {
		f.fail(fmt.Errorf("obs: %s: redeclared as %s with keys %v (have %s with keys %v)",
			name, kind, keys, f.kind, f.keys))
		return nil
	}
	return f
}

// families returns the family list; the slice header is safe to walk
// after the lock drops, since the list is append-only.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.family(name, "counter", nil).plain().c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.family(name, "gauge", nil).plain().g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.family(name, "histogram", nil).plain().h
}

// Visitor receives one callback per live metric from Registry.Visit,
// under the metric's encoded name: the bare name for a plain metric,
// name{k="v",...} for a family slot (see EncodeName). Implementations
// read the metric through its atomic accessors.
type Visitor interface {
	VisitCounter(name string, c *Counter)
	VisitGauge(name string, g *Gauge)
	VisitHistogram(name string, h *Histogram)
}

// Visit enumerates every metric: families in creation order, each
// family's slots in creation order. No registry lock is held during the
// callbacks, so a visitor may call back into the registry; metrics
// created during the walk may or may not be seen. Slots carry their
// encoded names, so the walk allocates nothing — the export Sampler's
// steady-state path.
func (r *Registry) Visit(v Visitor) {
	if r == nil {
		return
	}
	for _, f := range r.families() {
		for _, s := range f.liveSlots() {
			switch f.kind {
			case "counter":
				v.VisitCounter(s.enc, s.c)
			case "gauge":
				v.VisitGauge(s.enc, s.g)
			default:
				v.VisitHistogram(s.enc, s.h)
			}
		}
	}
}

// Snapshot is a point-in-time copy of a registry's metrics, shaped for
// JSON serialization and expvar publication. Histogram entries carry
// the per-phase duration statistics. Map keys are plain names for
// plain metrics and name{k="v",...} (see EncodeName) for family slots.
// Events are the completed spans the flight recorder retains, oldest
// first (none without a recorder).
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
	Events     []Event                   `json:"events,omitempty"`
}

// Snapshot captures every metric, including labeled families, plus
// the completed spans retained by the installed flight recorder.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	r.Visit((*snapshotter)(&s))
	s.Events = r.Flight().SpanEvents()
	return s
}

// snapshotter is the Visitor that fills a Snapshot.
type snapshotter Snapshot

func (s *snapshotter) VisitCounter(name string, c *Counter) { s.Counters[name] = c.Value() }
func (s *snapshotter) VisitGauge(name string, g *Gauge)     { s.Gauges[name] = g.Value() }
func (s *snapshotter) VisitHistogram(name string, h *Histogram) {
	st := h.Stats()
	st.Exemplars = h.Exemplars()
	st.Buckets = h.BucketCounts()
	s.Histograms[name] = st
}

// WriteJSON writes the current snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONFile writes the current snapshot to path, replacing any
// existing file. It backs the CLIs' -metrics-json flag.
func (r *Registry) WriteJSONFile(path string) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
