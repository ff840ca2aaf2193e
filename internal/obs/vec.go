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

// family is the registry's one unit of storage: one metric name, its
// kind, a declared label-key schema, and a bounded map from canonical
// label sets to live metric slots. A family with no keys is a plain
// metric; its single slot, for the empty label set, is created with it.
type family struct {
	name string
	kind string   // "counter" | "gauge" | "histogram"
	keys []string // declared label keys, sorted; none for a plain metric

	mu    sync.Mutex
	err   error
	slots map[string]*slot // by canonical label set (Labels.String)
	order []*slot          // creation order; append-only, header read under mu
}

// slot is one (label set → metric) binding. Exactly one of c/g/h is
// non-nil, matching the family kind; the zero slot, returned for a nil
// or failed lookup, holds nil (no-op) metrics. The encoded name is
// precomputed so Visit stays allocation-free.
type slot struct {
	enc string // EncodeName(name, labels): the snapshot key and Visitor name
	c   *Counter
	g   *Gauge
	h   *Histogram
}

func newFamily(name, kind string, keys []string) *family {
	f := &family{name: name, kind: kind, keys: sortedKeys(keys)}
	for i, k := range f.keys {
		if !ValidLabelKey(k) {
			f.err = fmt.Errorf("obs: %s: invalid label key %q (want lower_snake)", name, k)
		} else if i > 0 && f.keys[i-1] == k {
			f.err = fmt.Errorf("obs: %s: duplicate label key %q", name, k)
		}
	}
	if len(f.keys) == 0 {
		f.add("", nil)
	}
	return f
}

// sortedKeys returns a sorted copy of keys (nil for none).
func sortedKeys(keys []string) []string {
	if len(keys) == 0 {
		return nil // the plain-metric lookup, once per span: skip the sort
	}
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	return ks
}

// add creates the slot for the label set ls under its canonical key.
// A plain family's one slot stays out of the map (resolve returns it
// directly), so a plain metric carries no map. The caller holds f.mu or
// is still building f.
func (f *family) add(key string, ls Labels) *slot {
	s := &slot{enc: EncodeName(f.name, ls)}
	switch f.kind {
	case "counter":
		s.c = &Counter{}
	case "gauge":
		s.g = &Gauge{}
	default:
		s.h = &Histogram{}
	}
	if len(f.keys) > 0 {
		if f.slots == nil {
			f.slots = make(map[string]*slot)
		}
		f.slots[key] = s
	}
	f.order = append(f.order, s)
	return s
}

// plain returns the single slot of a family without label keys, or the
// zero slot for a nil family. The slot is created with the family and
// never replaced, so it is read without f.mu.
func (f *family) plain() slot {
	if f == nil {
		return slot{}
	}
	return *f.order[0]
}

// resolve returns the slot for the alternating key/value pairs in kv,
// creating it on first use. Schema mismatches and cardinality-cap trips
// record the family's first error and return the zero slot — the
// caller's handle becomes a nil metric, which is safe to use and
// visibly absent from exports, while Err() explains why.
func (f *family) resolve(kv []string) slot {
	if f == nil {
		return slot{}
	}
	// kv must not reach fmt or any heap store: call sites pass it as a
	// stack-allocated variadic slice, which is what keeps a disabled
	// (nil-vec) With at 0 allocs. Diagnostics format the heap-side ls.
	ls := MakeLabels(kv...)
	if len(kv)%2 != 0 || !f.keysMatch(ls) {
		f.fail(fmt.Errorf("obs: %s: With{%s} (%d args) does not match declared label keys %v",
			f.name, ls.String(), len(kv), f.keys))
		return slot{}
	}
	if len(f.keys) == 0 {
		return f.plain()
	}
	key := ls.String()
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.slots[key]; ok {
		return *s
	}
	if len(f.slots) >= MaxCardinality {
		if f.err == nil {
			f.err = fmt.Errorf("obs: %s: label cardinality cap %d exceeded adding {%s}",
				f.name, MaxCardinality, key)
		}
		return slot{}
	}
	return *f.add(key, ls)
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

// liveSlots returns the slots in creation order; the returned slice
// header stays valid after the lock drops (order is append-only).
func (f *family) liveSlots() []*slot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.order
}

// CounterVec is a labeled counter family. With resolves one label set
// to its *Counter once; hot paths hold the returned handle and pay the
// usual single pointer test per operation. A nil *CounterVec (from a
// nil registry) resolves to nil counters, keeping the disabled path
// allocation-free — BenchmarkObsDisabled in internal/core proves it.
type CounterVec family

// With returns the counter for the alternating key/value pairs, which
// must cover exactly the keys declared at CounterVec creation. On
// schema mismatch or cardinality-cap overflow it records the family's
// first error (see Err) and returns nil.
func (v *CounterVec) With(kv ...string) *Counter { return (*family)(v).resolve(kv).c }

// Err returns the first schema or cardinality error recorded by With.
func (v *CounterVec) Err() error { return (*family)(v).firstErr() }

// GaugeVec is a labeled gauge family; see CounterVec.
type GaugeVec family

// With returns the gauge for the given label set; see CounterVec.With.
func (v *GaugeVec) With(kv ...string) *Gauge { return (*family)(v).resolve(kv).g }

// Err returns the first schema or cardinality error recorded by With.
func (v *GaugeVec) Err() error { return (*family)(v).firstErr() }

// HistogramVec is a labeled histogram family; see CounterVec.
type HistogramVec family

// With returns the histogram for the given label set; see
// CounterVec.With.
func (v *HistogramVec) With(kv ...string) *Histogram { return (*family)(v).resolve(kv).h }

// Err returns the first schema or cardinality error recorded by With.
func (v *HistogramVec) Err() error { return (*family)(v).firstErr() }

// CounterVec returns the named counter family, creating it on first
// use with the given label-key schema. A repeated call returns the same
// family; one with another kind or key set records an error and
// returns nil.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	return (*CounterVec)(r.family(name, "counter", keys))
}

// GaugeVec returns the named gauge family; see CounterVec.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	return (*GaugeVec)(r.family(name, "gauge", keys))
}

// HistogramVec returns the named histogram family; see CounterVec.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	return (*HistogramVec)(r.family(name, "histogram", keys))
}

// VecErrors collects the first recorded error of every family, plain
// or labeled, in creation order — a cheap health check for tests.
func (r *Registry) VecErrors() []error {
	if r == nil {
		return nil
	}
	var errs []error
	for _, f := range r.families() {
		if err := f.firstErr(); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
