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
	"sort"
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
	children map[string]*Registry
	kidList  []*Registry       // every child, in creation order (append-only)
	encCache map[string]string // plain-metric name → EncodeName(name, labels)
	labels   Labels            // full label set: ancestors' labels merged with own
	own      Labels            // labels added relative to the parent registry
	maxCard  int               // per-family label cardinality cap (0 = default)
	clock    Clock
	flight   atomic.Pointer[FlightRecorder] // nil until NewFlightRecorder
}

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry { return &Registry{clock: Wall} }

// Child returns the child registry carrying the given additional
// labels (alternating key/value pairs), creating it on first use —
// calls with the same label set return the same child, so fleet
// aggregation can re-find a machine's registry by its identity. The
// child inherits the parent's clock, flight recorder and cardinality
// cap; log lines it emits carry its full label set as fields, so NDJSON
// records are stamped with the tenant identity. Child metrics surface
// through the parent's Visit and Snapshot with the child labels
// applied.
func (r *Registry) Child(kv ...string) *Registry {
	if r == nil {
		return nil
	}
	own := MakeLabels(kv...)
	key := own.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.children[key]
	if ok {
		return c
	}
	c = &Registry{
		labels:  r.labels.Merge(own),
		own:     own,
		maxCard: r.maxCard,
		clock:   r.clock,
	}
	c.flight.Store(r.flight.Load())
	if r.children == nil {
		r.children = make(map[string]*Registry)
	}
	r.children[key] = c
	r.kidList = append(r.kidList, c)
	return c
}

// Children returns the live child registries, sorted by label set.
func (r *Registry) Children() []*Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.children))
	for k := range r.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Registry, len(keys))
	for i, k := range keys {
		out[i] = r.children[k]
	}
	r.mu.Unlock()
	return out
}

// Labels returns the registry's full label set (ancestors merged with
// its own), nil for an unlabeled root.
func (r *Registry) Labels() Labels {
	if r == nil {
		return nil
	}
	return r.labels
}

// childrenLocked returns the append-only child list (the slice header
// is safe to iterate after the lock drops); callers hold r.mu.
func (r *Registry) childrenLocked() []*Registry {
	return r.kidList
}

// SetClock replaces the registry's time source (nil restores Wall) and
// propagates it to existing children. Spans started before the switch
// measure across both clocks.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	if c == nil {
		c = Wall
	}
	r.mu.Lock()
	r.clock = c
	kids := r.childrenLocked()
	r.mu.Unlock()
	for _, k := range kids {
		k.SetClock(c)
	}
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

// setFlight installs the flight recorder on the registry and its
// existing children; NewFlightRecorder calls it.
func (r *Registry) setFlight(f *FlightRecorder) {
	r.flight.Store(f)
	r.mu.Lock()
	kids := r.childrenLocked()
	r.mu.Unlock()
	for _, k := range kids {
		k.setFlight(f)
	}
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
// walking plain metrics). Labeled metrics — family slots and anything
// under a child registry — arrive with the label set encoded into the
// name, name{k="v",...} (see EncodeName); visitors that also implement
// LabelVisitor receive the parts split instead.
type Visitor interface {
	VisitCounter(name string, c *Counter)
	VisitGauge(name string, g *Gauge)
	VisitHistogram(name string, h *Histogram)
}

// LabelVisitor is the label-aware extension of Visitor: when a visitor
// implements it, Visit routes every metric — plain or labeled —
// through the VisitLabeled callbacks with the base name and the
// absolute label set (nil for unlabeled metrics in the root registry).
type LabelVisitor interface {
	Visitor
	VisitLabeledCounter(name string, labels Labels, c *Counter)
	VisitLabeledGauge(name string, labels Labels, g *Gauge)
	VisitLabeledHistogram(name string, labels Labels, h *Histogram)
}

// Visit enumerates every metric, descending into child registries —
// steady-state allocation-free (encoded names are cached on first
// visit), the export Sampler's path. Order is unspecified; visitors
// that need determinism must sort on their side.
func (r *Registry) Visit(v Visitor) {
	if r == nil {
		return
	}
	lv, _ := v.(LabelVisitor)
	r.mu.Lock()
	for name, c := range r.counters {
		if lv != nil {
			lv.VisitLabeledCounter(name, r.labels, c)
		} else {
			v.VisitCounter(r.encNameLocked(name), c)
		}
	}
	for name, g := range r.gauges {
		if lv != nil {
			lv.VisitLabeledGauge(name, r.labels, g)
		} else {
			v.VisitGauge(r.encNameLocked(name), g)
		}
	}
	for name, h := range r.hists {
		if lv != nil {
			lv.VisitLabeledHistogram(name, r.labels, h)
		} else {
			v.VisitHistogram(r.encNameLocked(name), h)
		}
	}
	fams := r.familiesLocked()
	kids := r.childrenLocked()
	r.mu.Unlock()
	for _, f := range fams {
		f.visit(v, lv)
	}
	for _, k := range kids {
		k.Visit(v)
	}
}

// encNameLocked returns EncodeName(name, r.labels), cached so repeat
// visits allocate nothing; callers hold r.mu.
func (r *Registry) encNameLocked(name string) string {
	if len(r.labels) == 0 {
		return name
	}
	enc, ok := r.encCache[name]
	if !ok {
		enc = EncodeName(name, r.labels)
		if r.encCache == nil {
			r.encCache = make(map[string]string)
		}
		r.encCache[name] = enc
	}
	return enc
}

// familiesLocked returns the append-only family list (the slice header
// is safe to iterate after the lock drops); callers hold r.mu.
func (r *Registry) familiesLocked() []*family {
	return r.fams
}

// Snapshot is a point-in-time copy of a registry's metrics, shaped for
// JSON serialization and expvar publication. Histogram entries carry
// the per-phase duration statistics. Labels is the snapshotting
// registry's own full label set (nil for an unlabeled root); map keys
// are metric identities relative to it — plain names for its own
// metrics, name{k="v",...} (see EncodeName) for family slots and
// child-registry metrics. Events are the completed spans the flight
// recorder retains, oldest first (none without a recorder).
type Snapshot struct {
	Labels     map[string]string         `json:"labels,omitempty"`
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
	Events     []Event                   `json:"events,omitempty"`
}

// Snapshot captures every metric, including labeled families and child
// registries, plus the completed spans retained by the installed
// flight recorder.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	s.Labels = r.labels.Map()
	r.snapshotInto(&s, nil)
	s.Events = r.flight.Load().SpanEvents()
	return s
}

// snapshotInto copies this registry's metrics into s, keyed with rel —
// the label path from the snapshotting ancestor down to this registry
// — then recurses into children with their own labels appended.
func (r *Registry) snapshotInto(s *Snapshot, rel Labels) {
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
	kids := r.childrenLocked()
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[EncodeName(k, rel)] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[EncodeName(k, rel)] = v.Value()
	}
	for k, v := range hists {
		st := v.Stats()
		st.Exemplars = v.Exemplars()
		st.Buckets = v.BucketCounts()
		s.Histograms[EncodeName(k, rel)] = st
	}
	for _, f := range fams {
		f.snapshotInto(s, rel)
	}
	for _, k := range kids {
		k.snapshotInto(s, rel.Merge(k.own))
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
