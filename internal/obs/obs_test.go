package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives every operation through nil receivers and the
// zero Span; none may panic, and reads must return zeros.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(time.Second)
	if s := h.Stats(); s.Count != 0 || s.MaxNS != 0 {
		t.Errorf("nil histogram has stats %+v", s)
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry returned a live metric")
	}
	r.SetClock(nil)
	if r.Clock() != Wall {
		t.Error("nil registry clock is not Wall")
	}
	sp := r.Span("phase")
	if d := sp.End(); d != 0 {
		t.Errorf("zero span measured %v", d)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	r.PublishExpvar("nil-registry")
}

func TestCounterGaugeRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(2)
	if got := r.Counter("hits").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if r.Counter("hits") != c {
		t.Error("same name returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}

	snap := r.Snapshot()
	if snap.Counters["hits"] != 3 || snap.Gauges["depth"] != 6 {
		t.Errorf("snapshot wrong: %+v", snap)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	// 99 fast observations and one slow outlier: p50 stays in the fast
	// band, p95 too, max is exact.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	h.Observe(time.Second)
	s := h.Stats()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxNS != int64(time.Second) {
		t.Errorf("max = %d", s.MaxNS)
	}
	if s.P50NS < 100 || s.P50NS >= 256 {
		t.Errorf("p50 = %d, want the [100,256) log bucket", s.P50NS)
	}
	if s.P95NS >= int64(time.Second) {
		t.Errorf("p95 = %d caught the outlier", s.P95NS)
	}
	if s.SumNS != 99*100+int64(time.Second) {
		t.Errorf("sum = %d", s.SumNS)
	}

	var single Histogram
	single.Observe(5 * time.Millisecond)
	ss := single.Stats()
	if ss.P50NS != ss.MaxNS || ss.P95NS != ss.MaxNS {
		t.Errorf("single sample quantiles not clamped to max: %+v", ss)
	}

	var neg Histogram
	neg.Observe(-time.Second)
	if s := neg.Stats(); s.MaxNS != 0 || s.Count != 1 {
		t.Errorf("negative observation not clamped: %+v", s)
	}
}

func TestManualClockAndSince(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatal("manual clock not at start")
	}
	m.Advance(3 * time.Second)
	if d := Since(m, start); d != 3*time.Second {
		t.Errorf("Since = %v", d)
	}
	m.Advance(-10 * time.Second)
	if d := Since(m, start); d != 0 {
		t.Errorf("backwards clock not clamped: %v", d)
	}
	if d := Since(nil, Wall.Now().Add(-time.Millisecond)); d < time.Millisecond {
		t.Errorf("nil clock did not read Wall: %v", d)
	}
}

// TestEvery: fn runs on every tick and once more at stop; stop returns
// only after the loop has exited, and a second stop does nothing.
func TestEvery(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ticked := make(chan struct{}, 1)
	stop := Every(time.Millisecond, func() {
		mu.Lock()
		calls++
		mu.Unlock()
		select {
		case ticked <- struct{}{}:
		default:
		}
	})
	<-ticked // one tick
	stop()
	mu.Lock()
	atStop := calls
	mu.Unlock()
	stop()
	time.Sleep(5 * time.Millisecond) // a leaked loop would tick again
	mu.Lock()
	defer mu.Unlock()
	if atStop < 2 || calls != atStop {
		t.Errorf("calls = %d at stop, %d after; want at least a tick plus the final call, then none", atStop, calls)
	}

	// Stopped before its first tick, fn still runs once.
	n := 0
	Every(time.Hour, func() { n++ })()
	if n != 1 {
		t.Errorf("stop before the first tick ran fn %d times, want 1", n)
	}
}

func TestSpanRecorderAndClock(t *testing.T) {
	r := NewRegistry()
	clock := NewManual(time.Unix(5000, 0))
	r.SetClock(clock)
	rec := NewFlightRecorder(r, 2, nil, LevelDebug)

	sp := r.Span("phase.a")
	clock.Advance(250 * time.Millisecond)
	if d := sp.End(); d != 250*time.Millisecond {
		t.Fatalf("span measured %v", d)
	}
	st := r.Histogram("phase.a").Stats()
	if st.Count != 1 || st.MaxNS != int64(250*time.Millisecond) {
		t.Errorf("histogram did not record the span: %+v", st)
	}
	ev := rec.SpanEvents()
	if len(ev) != 1 || ev[0].Name != "phase.a" || ev[0].DurNS != int64(250*time.Millisecond) {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].StartNS != time.Unix(5000, 0).UnixNano() {
		t.Errorf("event start = %d", ev[0].StartNS)
	}

	// The recorder bounds its ring, keeping the most recent spans, and
	// counts every append.
	r.Span("phase.b").End()
	r.Span("phase.c").End()
	ev = rec.SpanEvents()
	if len(ev) != 2 || ev[0].Name != "phase.b" || ev[1].Name != "phase.c" {
		t.Errorf("recorder kept %+v, want the last 2 (cap 2)", ev)
	}
	if got := r.Counter("obs.flight.spans").Value(); got != 3 {
		t.Errorf("obs.flight.spans = %d, want 3", got)
	}

	// Snapshot includes the recorder's spans.
	snap := r.Snapshot()
	if len(snap.Events) != 2 {
		t.Errorf("snapshot events = %d, want 2", len(snap.Events))
	}
}

// TestSpansRaceSetClock runs spans on several goroutines while the
// clock switches between two concrete Clock types; run it with -race.
// Every span lands in its histogram, whichever clocks it read.
func TestSpansRaceSetClock(t *testing.T) {
	r := NewRegistry()
	manual := NewManual(time.Unix(1, 0))
	const workers, spans = 4, 500
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				r.Span("race.phase").End()
			}
		}()
	}
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			switch i % 3 {
			case 0:
				r.SetClock(manual)
			case 1:
				r.SetClock(Wall)
			default:
				r.SetClock(nil)
			}
			manual.Advance(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	if got := r.Histogram("race.phase").Stats().Count; got != workers*spans {
		t.Fatalf("histogram counted %d spans, want %d", got, workers*spans)
	}
}

func TestWriteJSONFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(4)
	r.Gauge("a.level").Set(-2)
	r.Histogram("a.phase").Observe(time.Millisecond)

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if snap.Counters["a.count"] != 4 || snap.Gauges["a.level"] != -2 {
		t.Errorf("roundtrip lost values: %+v", snap)
	}
	if h := snap.Histograms["a.phase"]; h.Count != 1 || h.MaxNS != int64(time.Millisecond) {
		t.Errorf("roundtrip lost histogram: %+v", h)
	}
}

// TestConcurrency hammers one registry from many goroutines; run under
// -race (the ci.sh race leg includes this package) it certifies the
// layer is safe on concurrent hot paths.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	NewFlightRecorder(r, 64, nil, LevelDebug)
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.count").Inc()
				r.Gauge("shared.gauge").Add(1)
				r.Histogram("shared.hist").Observe(time.Duration(i))
				r.Span("shared.span").End()
				r.Log(LevelInfo, "shared.event")
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != workers*iters {
		t.Errorf("count = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("shared.hist").Stats().Count; got != workers*iters {
		t.Errorf("hist count = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("shared.span").Stats().Count; got != workers*iters {
		t.Errorf("span count = %d, want %d", got, workers*iters)
	}
	if got := r.Counter("obs.flight.events").Value(); got != workers*iters {
		t.Errorf("logged lines = %d, want %d", got, workers*iters)
	}
}
