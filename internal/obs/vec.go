package obs

import (
	"fmt"
	"sort"
	"sync"
)

// MaxCardinality bounds how many distinct label sets one metric family
// will materialize before With starts refusing new ones. Labels are
// for low-cardinality dimensions (n, outcome, route); the cap turns an
// accidental per-request label into a recorded error instead of
// unbounded memory growth.
const MaxCardinality = 1024

// family is the shared bookkeeping behind CounterVec, GaugeVec and
// HistogramVec: one metric name, a declared label-key schema, and a
// bounded map from canonical label sets to live metric slots.
type family struct {
	name string
	kind string   // "counter" | "gauge" | "histogram"
	keys []string // declared label keys, sorted

	mu    sync.Mutex
	err   error
	slots map[string]*slot
	order []*slot // insertion order; slice header captured under mu, append-only
}

// slot is one (label set → metric) binding. Exactly one of c/g/h is
// non-nil, matching the family kind. Encodings are precomputed so the
// export Sampler's Visit path stays allocation-free.
type slot struct {
	labels Labels // sorted
	enc    string // EncodeName(name, labels): snapshot key and plain-Visitor name
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func newFamily(name, kind string, keys []string) *family {
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	f := &family{name: name, kind: kind, keys: ks}
	for i, k := range ks {
		if !ValidLabelKey(k) {
			f.err = fmt.Errorf("obs: %s: invalid label key %q (want lower_snake)", name, k)
		} else if i > 0 && ks[i-1] == k {
			f.err = fmt.Errorf("obs: %s: duplicate label key %q", name, k)
		}
	}
	return f
}

// resolve returns the slot for the alternating key/value pairs in kv,
// creating it on first use. Schema mismatches and cardinality-cap trips
// record the family's first error and return nil — the caller's handle
// becomes a nil metric, which is safe to use and visibly absent from
// exports, while Err() explains why.
func (f *family) resolve(kv []string) *slot {
	// kv must not reach fmt or any heap store: call sites pass it as a
	// stack-allocated variadic slice, which is what keeps a disabled
	// (nil-vec) With at 0 allocs. Diagnostics format the heap-side ls.
	ls := MakeLabels(kv...)
	if len(kv)%2 != 0 || !f.keysMatch(ls) {
		f.fail(fmt.Errorf("obs: %s: With{%s} (%d args) does not match declared label keys %v",
			f.name, ls.String(), len(kv), f.keys))
		return nil
	}
	key := ls.String()
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.slots[key]
	if ok {
		return s
	}
	if len(f.slots) >= MaxCardinality {
		if f.err == nil {
			f.err = fmt.Errorf("obs: %s: label cardinality cap %d exceeded adding {%s}",
				f.name, MaxCardinality, key)
		}
		return nil
	}
	s = &slot{labels: ls, enc: EncodeName(f.name, ls)}
	switch f.kind {
	case "counter":
		s.c = &Counter{}
	case "gauge":
		s.g = &Gauge{}
	default:
		s.h = &Histogram{}
	}
	if f.slots == nil {
		f.slots = make(map[string]*slot)
	}
	f.slots[key] = s
	f.order = append(f.order, s)
	return s
}

// keysMatch reports whether the sorted label set ls covers exactly the
// declared keys.
func (f *family) keysMatch(ls Labels) bool {
	if len(ls) != len(f.keys) {
		return false
	}
	for i, l := range ls {
		if l.Key != f.keys[i] {
			return false
		}
	}
	return true
}

func (f *family) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *family) firstErr() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// snapshotSlots returns the live slots; the returned slice header is
// immutable (order is append-only under mu).
func (f *family) snapshotSlots() []*slot {
	f.mu.Lock()
	s := f.order
	f.mu.Unlock()
	return s
}

// visit walks every slot. Label-aware visitors get the base name plus
// the label set; plain visitors get the precomputed encoded name, so
// the Sampler path allocates nothing once slots exist.
func (f *family) visit(v Visitor, lv LabelVisitor) {
	for _, s := range f.snapshotSlots() {
		switch f.kind {
		case "counter":
			if lv != nil {
				lv.VisitLabeledCounter(f.name, s.labels, s.c)
			} else {
				v.VisitCounter(s.enc, s.c)
			}
		case "gauge":
			if lv != nil {
				lv.VisitLabeledGauge(f.name, s.labels, s.g)
			} else {
				v.VisitGauge(s.enc, s.g)
			}
		default:
			if lv != nil {
				lv.VisitLabeledHistogram(f.name, s.labels, s.h)
			} else {
				v.VisitHistogram(s.enc, s.h)
			}
		}
	}
}

// snapshotInto writes every slot into s under its encoded name.
func (f *family) snapshotInto(s *Snapshot) {
	for _, sl := range f.snapshotSlots() {
		switch f.kind {
		case "counter":
			s.Counters[sl.enc] = sl.c.Value()
		case "gauge":
			s.Gauges[sl.enc] = sl.g.Value()
		default:
			st := sl.h.Stats()
			st.Exemplars = sl.h.Exemplars()
			st.Buckets = sl.h.BucketCounts()
			s.Histograms[sl.enc] = st
		}
	}
}

// CounterVec is a labeled counter family. With resolves one label set
// to its *Counter once; hot paths hold the returned handle and pay the
// usual single pointer test per operation. A nil *CounterVec (from a
// nil registry) resolves to nil counters, keeping the disabled path
// allocation-free — BenchmarkObsDisabled in internal/core proves it.
type CounterVec struct{ f *family }

// With returns the counter for the alternating key/value pairs, which
// must cover exactly the keys declared at CounterVec creation. On
// schema mismatch or cardinality-cap overflow it records the family's
// first error (see Err) and returns nil.
func (v *CounterVec) With(kv ...string) *Counter {
	if v == nil {
		return nil
	}
	s := v.f.resolve(kv)
	if s == nil {
		return nil
	}
	return s.c
}

// Err returns the first schema or cardinality error recorded by With.
func (v *CounterVec) Err() error {
	if v == nil {
		return nil
	}
	return v.f.firstErr()
}

// GaugeVec is a labeled gauge family; see CounterVec.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label set; see CounterVec.With.
func (v *GaugeVec) With(kv ...string) *Gauge {
	if v == nil {
		return nil
	}
	s := v.f.resolve(kv)
	if s == nil {
		return nil
	}
	return s.g
}

// Err returns the first schema or cardinality error recorded by With.
func (v *GaugeVec) Err() error {
	if v == nil {
		return nil
	}
	return v.f.firstErr()
}

// HistogramVec is a labeled histogram family; see CounterVec.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label set; see
// CounterVec.With.
func (v *HistogramVec) With(kv ...string) *Histogram {
	if v == nil {
		return nil
	}
	s := v.f.resolve(kv)
	if s == nil {
		return nil
	}
	return s.h
}

// Err returns the first schema or cardinality error recorded by With.
func (v *HistogramVec) Err() error {
	if v == nil {
		return nil
	}
	return v.f.firstErr()
}

// CounterVec returns the named counter family, creating it on first
// use with the given label-key schema. Subsequent calls return the
// existing family; a conflicting key schema records an error on it.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.cvecs[name]
	if !ok {
		v = &CounterVec{f: newFamily(name, "counter", keys)}
		if r.cvecs == nil {
			r.cvecs = make(map[string]*CounterVec)
		}
		r.cvecs[name] = v
		r.fams = append(r.fams, v.f)
	} else {
		checkSchema(v.f, keys)
	}
	return v
}

// GaugeVec returns the named gauge family, creating it on first use.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gvecs[name]
	if !ok {
		v = &GaugeVec{f: newFamily(name, "gauge", keys)}
		if r.gvecs == nil {
			r.gvecs = make(map[string]*GaugeVec)
		}
		r.gvecs[name] = v
		r.fams = append(r.fams, v.f)
	} else {
		checkSchema(v.f, keys)
	}
	return v
}

// HistogramVec returns the named histogram family, creating it on
// first use.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.hvecs[name]
	if !ok {
		v = &HistogramVec{f: newFamily(name, "histogram", keys)}
		if r.hvecs == nil {
			r.hvecs = make(map[string]*HistogramVec)
		}
		r.hvecs[name] = v
		r.fams = append(r.fams, v.f)
	} else {
		checkSchema(v.f, keys)
	}
	return v
}

// checkSchema records an error when a family is re-declared with a
// different key set — two call sites disagreeing about a family's
// dimensions is a bug worth surfacing, not silently merging.
func checkSchema(f *family, keys []string) {
	if len(keys) != len(f.keys) {
		f.fail(fmt.Errorf("obs: %s: redeclared with keys %v (have %v)", f.name, keys, f.keys))
		return
	}
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	for i, k := range ks {
		if k != f.keys[i] {
			f.fail(fmt.Errorf("obs: %s: redeclared with keys %v (have %v)", f.name, keys, f.keys))
			return
		}
	}
}

// VecErrors collects the first recorded error of every family, in
// creation order — a cheap health check for tests.
func (r *Registry) VecErrors() []error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := r.familiesLocked()
	r.mu.Unlock()

	var errs []error
	for _, f := range fams {
		if err := f.firstErr(); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
