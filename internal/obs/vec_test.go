package obs

import (
	"fmt"
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

func TestVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.SetMaxCardinality(3)
	v := r.CounterVec("m", "id")
	for i := 0; i < 3; i++ {
		if v.With("id", fmt.Sprint(i)) == nil {
			t.Fatalf("slot %d refused under the cap", i)
		}
	}
	if v.With("id", "3") != nil {
		t.Error("4th label set resolved past a cap of 3")
	}
	// Existing slots keep working.
	if v.With("id", "0") == nil {
		t.Error("existing slot lost after cap trip")
	}
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "cardinality cap") {
		t.Errorf("Err() = %v, want cardinality cap", err)
	}
	if len(r.Snapshot().Counters) != 3 {
		t.Errorf("snapshot grew past the cap: %v", r.Snapshot().Counters)
	}
}

func TestChildRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Child("machine", "m0")
	if again := r.Child("machine", "m0"); again != c {
		t.Error("Child is not idempotent per label set")
	}
	if other := r.Child("machine", "m1"); other == c {
		t.Error("distinct label sets shared a child")
	}
	g := c.Child("zone", "a")
	if got := g.Labels().String(); got != `machine="m0",zone="a"` {
		t.Errorf("grandchild labels = %q", got)
	}

	c.Counter("sim.embeds").Add(5)
	c.CounterVec("core.repair.outcome", "outcome").With("outcome", "splices").Inc()
	g.Gauge("depth").Set(2)

	// Root snapshot: fully labeled keys.
	snap := r.Snapshot()
	if got := snap.Counters[`sim.embeds{machine="m0"}`]; got != 5 {
		t.Errorf("root view = %v", snap.Counters)
	}
	if got := snap.Counters[`core.repair.outcome{machine="m0",outcome="splices"}`]; got != 1 {
		t.Errorf("root view of family = %v", snap.Counters)
	}
	if got := snap.Gauges[`depth{machine="m0",zone="a"}`]; got != 2 {
		t.Errorf("root view of grandchild = %v", snap.Gauges)
	}
	// Child snapshot: self-relative keys, identity in Labels.
	cs := c.Snapshot()
	if cs.Labels["machine"] != "m0" {
		t.Errorf("child snapshot labels = %v", cs.Labels)
	}
	if got := cs.Counters["sim.embeds"]; got != 5 {
		t.Errorf("child view = %v", cs.Counters)
	}
	if got := cs.Gauges[`depth{zone="a"}`]; got != 2 {
		t.Errorf("child view of grandchild = %v", cs.Gauges)
	}

	if len(r.Children()) != 2 {
		t.Errorf("Children() = %d, want 2", len(r.Children()))
	}
}

// A child's log lines carry its labels, whether the child existed
// before the flight recorder was installed or was created after, and a
// call-site field wins a key collision with a label.
func TestChildEventLogStamping(t *testing.T) {
	var buf strings.Builder
	r := NewRegistry()
	early := r.Child("machine", "m0")
	NewFlightRecorder(r, 8, &buf, LevelInfo)
	early.Log(LevelInfo, "boot", F("ok", true))
	r.Child("machine", "m1").Child("zone", "a").Log(LevelInfo, "boot", F("zone", "b"))
	recs, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if got, _ := recs[0].Fields["machine"].(string); got != "m0" {
		t.Errorf("machine field = %q; record %+v", got, recs[0])
	}
	if ok, _ := recs[0].Fields["ok"].(bool); !ok {
		t.Errorf("call-site field lost: %+v", recs[0])
	}
	if recs[1].Fields["machine"] != "m1" || recs[1].Fields["zone"] != "b" {
		t.Errorf("grandchild record = %+v, want machine=m1 and the call-site zone=b", recs[1])
	}
}

// labelCollector records both plain and labeled callbacks to test
// Visit's routing.
type labelCollector struct {
	plain   []string
	labeled []string
}

func (c *labelCollector) VisitCounter(name string, _ *Counter)     { c.plain = append(c.plain, name) }
func (c *labelCollector) VisitGauge(name string, _ *Gauge)         { c.plain = append(c.plain, name) }
func (c *labelCollector) VisitHistogram(name string, _ *Histogram) { c.plain = append(c.plain, name) }
func (c *labelCollector) VisitLabeledCounter(name string, ls Labels, _ *Counter) {
	c.labeled = append(c.labeled, EncodeName(name, ls))
}
func (c *labelCollector) VisitLabeledGauge(name string, ls Labels, _ *Gauge) {
	c.labeled = append(c.labeled, EncodeName(name, ls))
}
func (c *labelCollector) VisitLabeledHistogram(name string, ls Labels, _ *Histogram) {
	c.labeled = append(c.labeled, EncodeName(name, ls))
}

// plainCollector implements only Visitor; labeled metrics must arrive
// with encoded names.
type plainCollector struct{ names []string }

func (c *plainCollector) VisitCounter(name string, _ *Counter)     { c.names = append(c.names, name) }
func (c *plainCollector) VisitGauge(name string, _ *Gauge)         { c.names = append(c.names, name) }
func (c *plainCollector) VisitHistogram(name string, _ *Histogram) { c.names = append(c.names, name) }

func TestVisitLabelRouting(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain").Inc()
	r.CounterVec("fam", "n").With("n", "6").Inc()
	r.Child("machine", "m0").Counter("sim.embeds").Inc()

	lc := &labelCollector{}
	r.Visit(lc)
	if len(lc.plain) != 0 {
		t.Errorf("LabelVisitor received plain callbacks: %v", lc.plain)
	}
	wantLabeled := map[string]bool{
		"plain":                    true,
		`fam{n="6"}`:               true,
		`sim.embeds{machine="m0"}`: true,
	}
	for _, n := range lc.labeled {
		delete(wantLabeled, n)
	}
	if len(wantLabeled) != 0 {
		t.Errorf("labeled callbacks missing %v; got %v", wantLabeled, lc.labeled)
	}

	pc := &plainCollector{}
	r.Visit(pc)
	wantPlain := map[string]bool{
		"plain":                    true,
		`fam{n="6"}`:               true,
		`sim.embeds{machine="m0"}`: true,
	}
	for _, n := range pc.names {
		delete(wantPlain, n)
	}
	if len(wantPlain) != 0 {
		t.Errorf("plain callbacks missing %v; got %v", wantPlain, pc.names)
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
// leg): family creation vs With vs Visit vs Snapshot vs Child.
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
				r.Child("machine", id).Counter("sim.embeds").Inc()
				switch i % 3 {
				case 0:
					r.Snapshot()
				case 1:
					r.Visit(&plainCollector{})
				default:
					r.Visit(&labelCollector{})
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
