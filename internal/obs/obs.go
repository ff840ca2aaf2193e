// Package obs is the repository's zero-dependency observability layer:
// atomic counters and gauges, log-bucketed timing histograms with
// p50/p95/max, span-style phase tracing, structured log lines, and an
// injectable clock. It exists so the embedding pipeline — an O(n!)
// construction whose junction backtracks, S4 cache behavior and
// per-phase costs are otherwise invisible — can be measured without
// perturbing it.
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
// "core.s4.cache_hits"); the glossary lives in the README's
// Observability section. Snapshots serialize to JSON via WriteJSON and
// publish live through expvar (PublishExpvar, StartDebugServer).
package obs

import (
	"encoding/json"
	"io"
	"os"
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

// Registry names and owns a set of metrics. Metrics are created lazily
// on first access and live for the registry's lifetime; accessors on a
// nil *Registry return nil metrics, so a single optional *Registry
// switches a whole subsystem's instrumentation on or off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cvecs    map[string]*CounterVec
	gvecs    map[string]*GaugeVec
	hvecs    map[string]*HistogramVec
	fams     []*family // every family, in creation order (append-only)
	clock    Clock
	flight   atomic.Pointer[FlightRecorder] // nil until NewFlightRecorder
}

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry { return &Registry{clock: Wall} }

// SetClock replaces the registry's time source (nil restores Wall).
// Spans started before the switch measure across both clocks.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	if c == nil {
		c = Wall
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

// Clock returns the registry's time source; a nil registry reads Wall.
func (r *Registry) Clock() Clock {
	if r == nil {
		return Wall
	}
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	if c == nil {
		return Wall
	}
	return c
}

// Flight returns the installed flight recorder; nil (a no-op recorder)
// when none is installed or the registry is nil.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		if r.hists == nil {
			r.hists = make(map[string]*Histogram)
		}
		r.hists[name] = h
	}
	return h
}

// Visitor receives one callback per live metric from Registry.Visit.
// Implementations read the metric through its atomic accessors; they
// must not call back into the registry (Visit holds its lock while
// walking plain metrics). Family slots arrive with the label set
// encoded into the name, name{k="v",...} (see EncodeName); visitors
// that also implement LabelVisitor receive the parts split instead.
type Visitor interface {
	VisitCounter(name string, c *Counter)
	VisitGauge(name string, g *Gauge)
	VisitHistogram(name string, h *Histogram)
}

// LabelVisitor is the label-aware extension of Visitor: when a visitor
// implements it, Visit routes every metric — plain or labeled —
// through the VisitLabeled callbacks with the base name and the label
// set (nil for plain metrics).
type LabelVisitor interface {
	Visitor
	VisitLabeledCounter(name string, labels Labels, c *Counter)
	VisitLabeledGauge(name string, labels Labels, g *Gauge)
	VisitLabeledHistogram(name string, labels Labels, h *Histogram)
}

// Visit enumerates every metric — steady-state allocation-free (family
// slots carry their encoded names), the export Sampler's path. Order
// is unspecified; visitors that need determinism must sort on their
// side.
func (r *Registry) Visit(v Visitor) {
	if r == nil {
		return
	}
	lv, _ := v.(LabelVisitor)
	r.mu.Lock()
	for name, c := range r.counters {
		if lv != nil {
			lv.VisitLabeledCounter(name, nil, c)
		} else {
			v.VisitCounter(name, c)
		}
	}
	for name, g := range r.gauges {
		if lv != nil {
			lv.VisitLabeledGauge(name, nil, g)
		} else {
			v.VisitGauge(name, g)
		}
	}
	for name, h := range r.hists {
		if lv != nil {
			lv.VisitLabeledHistogram(name, nil, h)
		} else {
			v.VisitHistogram(name, h)
		}
	}
	fams := r.familiesLocked()
	r.mu.Unlock()
	for _, f := range fams {
		f.visit(v, lv)
	}
}

// familiesLocked returns the append-only family list (the slice header
// is safe to iterate after the lock drops); callers hold r.mu.
func (r *Registry) familiesLocked() []*family {
	return r.fams
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
	if r == nil {
		return s
	}
	r.snapshotInto(&s)
	s.Events = r.flight.Load().SpanEvents()
	return s
}

// snapshotInto copies the registry's metrics into s.
func (r *Registry) snapshotInto(s *Snapshot) {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	fams := r.familiesLocked()
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		st := v.Stats()
		st.Exemplars = v.Exemplars()
		st.Buckets = v.BucketCounts()
		s.Histograms[k] = st
	}
	for _, f := range fams {
		f.snapshotInto(s)
	}
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
