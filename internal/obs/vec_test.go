package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecWith(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("core.embed.completed", "n", "mode")
	v.With("n", "6", "mode", "guaranteed").Add(2)
	v.With("mode", "guaranteed", "n", "6").Inc() // order-insensitive: same slot
	v.With("n", "7", "mode", "besteffort").Inc()

	snap := r.Snapshot()
	if got := snap.Counters[`core.embed.completed{mode="guaranteed",n="6"}`]; got != 3 {
		t.Errorf("guaranteed n=6 = %d, want 3; %v", got, snap.Counters)
	}
	if got := snap.Counters[`core.embed.completed{mode="besteffort",n="7"}`]; got != 1 {
		t.Errorf("besteffort n=7 = %d, want 1", got)
	}
	if err := v.Err(); err != nil {
		t.Errorf("unexpected family error: %v", err)
	}
}

func TestVecSchemaMismatch(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("m", "n")
	if c := v.With("wrong_key", "1"); c != nil {
		t.Error("mismatched keys resolved a live counter")
	}
	v.With("wrong_key", "1").Inc() // nil counter: must be safe
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "declared label keys") {
		t.Errorf("Err() = %v, want schema mismatch", err)
	}
	// Odd argument count is a mismatch too (on a fresh family, since
	// only the first error is kept).
	v2 := r.CounterVec("m2", "n")
	if c := v2.With("n"); c != nil {
		t.Error("odd kv list resolved a live counter")
	}
	if v2.Err() == nil {
		t.Error("odd kv list left no error")
	}
	// Redeclaring a family with different keys is recorded, not merged
	// (fresh registry: families keep only their first error).
	r3 := NewRegistry()
	r3.CounterVec("m", "n")
	r3.CounterVec("m", "other")
	errs := r3.VecErrors()
	found := false
	for _, err := range errs {
		if strings.Contains(err.Error(), "redeclared") {
			found = true
		}
	}
	if !found {
		t.Errorf("VecErrors() = %v, want a redeclaration error", errs)
	}
}

func TestVecInvalidKey(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("m", "Not_Snake")
	if v.Err() == nil {
		t.Error("invalid label key accepted")
	}
	r2 := NewRegistry()
	if v := r2.HistogramVec("h", "n", "n"); v.Err() == nil {
		t.Error("duplicate label key accepted")
	}
}

// TestVecCardinalityCap fills one family up to MaxCardinality and
// checks that the next label set is refused.
func TestVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("m", "id")
	for i := 0; i < MaxCardinality; i++ {
		if v.With("id", fmt.Sprint(i)) == nil {
			t.Fatalf("slot %d refused under the cap", i)
		}
	}
	if v.With("id", fmt.Sprint(MaxCardinality)) != nil {
		t.Errorf("label set %d resolved past a cap of %d", MaxCardinality+1, MaxCardinality)
	}
	// Existing slots keep working.
	if v.With("id", "0") == nil {
		t.Error("existing slot lost after cap trip")
	}
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "cardinality cap") {
		t.Errorf("Err() = %v, want cardinality cap", err)
	}
	if got := len(r.Snapshot().Counters); got != MaxCardinality {
		t.Errorf("snapshot holds %d series, want the cap %d", got, MaxCardinality)
	}
}

// plainCollector records the names a Visitor receives, in order.
type plainCollector struct{ names []string }

func (c *plainCollector) VisitCounter(name string, _ *Counter)     { c.names = append(c.names, name) }
func (c *plainCollector) VisitGauge(name string, _ *Gauge)         { c.names = append(c.names, name) }
func (c *plainCollector) VisitHistogram(name string, _ *Histogram) { c.names = append(c.names, name) }

// TestVisitEncodesLabeledNames: Visit walks families in creation order
// and hands every labeled slot to a plain Visitor under its encoded
// name, next to the bare names of plain metrics.
func TestVisitEncodesLabeledNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain").Inc()
	r.CounterVec("fam", "n").With("n", "6").Inc()
	r.GaugeVec("sim.ring_length", "machine").With("machine", "m0").Set(114)
	r.CounterVec("fam", "n").With("n", "7").Inc()

	pc := &plainCollector{}
	r.Visit(pc)
	want := []string{"plain", `fam{n="6"}`, `fam{n="7"}`, `sim.ring_length{machine="m0"}`}
	if !slices.Equal(pc.names, want) {
		t.Errorf("Visit names = %q, want %q", pc.names, want)
	}
}

// TestRedeclareOtherKind: one name is one family, so declaring it again
// as another kind, or a plain name again as a labeled family, records
// one error and yields nil metrics while the first declaration keeps
// counting.
func TestRedeclareOtherKind(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	if g := r.Gauge("x"); g != nil {
		t.Error("Gauge(x) after Counter(x) returned a live gauge")
	}
	r.Gauge("x").Set(5) // nil gauge: must be safe
	c.Inc()
	r.Counter("x").Inc()
	if got := c.Value(); got != 2 {
		t.Errorf("counter x = %d after the clash, want 2", got)
	}
	if errs := r.VecErrors(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "redeclared") {
		t.Errorf("VecErrors() = %v, want one redeclaration error", errs)
	}

	r2 := NewRegistry()
	r2.Counter("y").Inc()
	if v := r2.CounterVec("y", "n"); v != nil || v.With("n", "6") != nil {
		t.Error("CounterVec(y, n) after Counter(y) returned a live family")
	}
	r2.Counter("y").Inc()
	if got := r2.Counter("y").Value(); got != 2 {
		t.Errorf("counter y = %d after the clash, want 2", got)
	}
	if errs := r2.VecErrors(); len(errs) != 1 {
		t.Errorf("VecErrors() = %v, want one redeclaration error", errs)
	}
	if snap := r2.Snapshot(); len(snap.Counters) != 1 || snap.Counters["y"] != 2 {
		t.Errorf("snapshot counters = %v, want only y=2", snap.Counters)
	}
}

// TestRepeatedDeclarationSamePointer: every accessor returns the
// metric or family it created, whatever the key order.
func TestRepeatedDeclarationSamePointer(t *testing.T) {
	r := NewRegistry()
	if a, b := r.Counter("c"), r.Counter("c"); a == nil || a != b {
		t.Errorf("Counter(c) twice: %p then %p", a, b)
	}
	// A family declared without keys is the plain metric of that name.
	if a, b := r.Counter("c"), r.CounterVec("c").With(); a != b {
		t.Errorf("Counter(c) is %p, CounterVec(c).With() is %p", a, b)
	}
	if a, b := r.CounterVec("v", "n", "mode"), r.CounterVec("v", "mode", "n"); a == nil || a != b {
		t.Errorf("CounterVec(v) twice: %p then %p", a, b)
	}
	if errs := r.VecErrors(); len(errs) != 0 {
		t.Errorf("VecErrors() = %v, want none", errs)
	}
	pc := &plainCollector{}
	r.Visit(pc)
	if !slices.Equal(pc.names, []string{"c"}) {
		t.Errorf("Visit names = %q, want the one counter", pc.names)
	}
}

// TestVecDisabledAllocs pins the tentpole's hot-path guarantee at the
// obs layer: With on a nil vec must not heap-allocate its key/value
// pairs (internal/core's BenchmarkObsDisabled measures the same path).
func TestVecDisabledAllocs(t *testing.T) {
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	if allocs := testing.AllocsPerRun(1000, func() {
		cv.With("n", "6", "mode", "guaranteed").Inc()
		gv.With("n", "6").Set(1)
		hv.With("n", "6").Observe(1)
	}); allocs != 0 {
		t.Errorf("disabled With allocates %.1f times per call", allocs)
	}
}

// TestVecConcurrency exercises every mutating and reading surface at
// once; its real assertions run under `go test -race` (the ci.sh race
// leg): family creation, plain or labeled, vs With vs Visit vs Snapshot.
func TestVecConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("m%d", w%4)
			for i := 0; i < 200; i++ {
				r.CounterVec("fam", "id").With("id", id).Inc()
				r.CounterVec("sim.embeds", "machine").With("machine", id).Inc()
				r.Counter("plain." + id).Inc()
				if i%2 == 0 {
					r.Snapshot()
				} else {
					r.Visit(&plainCollector{})
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for i := 0; i < 4; i++ {
		total += snap.Counters[fmt.Sprintf(`fam{id="m%d"}`, i)]
		total += snap.Counters[fmt.Sprintf(`sim.embeds{machine="m%d"}`, i)]
	}
	if want := int64(8 * 200 * 2); total != want {
		t.Errorf("lost updates: %d, want %d", total, want)
	}
}
