// Package export turns the live instrumentation of internal/obs into
// artifacts other tools can read: fixed-capacity ring-buffered time
// series (Sampler), OpenMetrics/Prometheus text exposition for a
// /metrics endpoint, Chrome trace_event JSON loadable by Perfetto, and
// the post-mortem bundle of the flight recorder's ring
// (obs.FlightRecorder). Like obs itself it is stdlib-only; cmd/starmon
// is its terminal front end.
package export

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Sample is one time-series point: a unix-nanosecond instant and the
// metric's value at it. Histogram series carry the stat named by their
// series (count, p50_ns, p95_ns, max_ns).
type Sample struct {
	T int64 `json:"t_unix_ns"`
	V int64 `json:"v"`
}

// Series is one exported metric history, oldest sample first.
type Series struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "counter" | "gauge" | "histogram"
	Samples []Sample `json:"samples"`
}

// SamplerConfig sizes a Sampler. The zero value is usable: one-second
// period, 600 samples per series (ten minutes of history), timestamps
// from the registry's own clock.
type SamplerConfig struct {
	// Period is the tick interval used by Start. Sample ignores it.
	Period time.Duration
	// Capacity is the ring size per series; older samples are
	// overwritten in place.
	Capacity int
	// Clock stamps samples; nil uses the registry's clock, so a
	// registry on an obs.Manual clock yields virtual-time series.
	Clock obs.Clock
}

// ring is one metric's fixed-capacity sample buffer. buf is allocated
// full-length once; append overwrites in place, so the steady state
// never allocates.
type ring struct {
	kind string
	buf  []Sample
	head int // next write position
	n    int // filled entries (<= len(buf))
}

func (r *ring) append(t, v int64) {
	r.buf[r.head] = Sample{T: t, V: v}
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// snapshot returns the samples oldest-first.
func (r *ring) snapshot() []Sample {
	out := make([]Sample, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// histRings caches the four stat sub-series of one histogram so the
// steady-state sample path does no string concatenation.
type histRings struct {
	count, p50, p95, max *ring
}

// Sampler periodically snapshots a Registry into per-metric ring
// buffers. Counters and gauges become one series each; a histogram
// expands into <name>.count, <name>.p50_ns, <name>.p95_ns and
// <name>.max_ns. After every live metric has been seen once, Sample
// allocates nothing (proven by TestSamplerSteadyStateAllocs).
//
// Drive it either by calling Sample explicitly — the only option under
// an obs.Manual clock — or with Start, which ticks on the wall clock at
// the configured period.
type Sampler struct {
	reg   *obs.Registry
	clock obs.Clock
	cap   int
	// period is the Start tick interval, recorded in WriteJSON output.
	period time.Duration

	mu     sync.Mutex
	now    int64 // timestamp of the sample in progress
	scalar map[string]*ring
	hists  map[string]*histRings
}

// NewSampler returns a sampler over reg.
func NewSampler(reg *obs.Registry, cfg SamplerConfig) *Sampler {
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 600
	}
	clock := cfg.Clock
	if clock == nil {
		clock = reg.Clock()
	}
	return &Sampler{
		reg:    reg,
		clock:  clock,
		cap:    cfg.Capacity,
		period: cfg.Period,
		scalar: make(map[string]*ring),
		hists:  make(map[string]*histRings),
	}
}

// Sample records one point for every live metric, stamped with the
// sampler's clock.
func (s *Sampler) Sample() {
	now := s.clock.Now().UnixNano()
	s.mu.Lock()
	s.now = now
	s.reg.Visit(s)
	s.mu.Unlock()
}

// newRing allocates one fixed-capacity series buffer.
func (s *Sampler) newRing(kind string) *ring {
	return &ring{kind: kind, buf: make([]Sample, s.cap)}
}

// VisitCounter implements obs.Visitor.
func (s *Sampler) VisitCounter(name string, c *obs.Counter) {
	r := s.scalar[name]
	if r == nil {
		r = s.newRing("counter")
		s.scalar[name] = r
	}
	r.append(s.now, c.Value())
}

// VisitGauge implements obs.Visitor.
func (s *Sampler) VisitGauge(name string, g *obs.Gauge) {
	r := s.scalar[name]
	if r == nil {
		r = s.newRing("gauge")
		s.scalar[name] = r
	}
	r.append(s.now, g.Value())
}

// VisitHistogram implements obs.Visitor.
func (s *Sampler) VisitHistogram(name string, h *obs.Histogram) {
	hr := s.hists[name]
	if hr == nil {
		hr = &histRings{
			count: s.newRing("histogram"),
			p50:   s.newRing("histogram"),
			p95:   s.newRing("histogram"),
			max:   s.newRing("histogram"),
		}
		s.hists[name] = hr
	}
	st := h.Stats()
	hr.count.append(s.now, st.Count)
	hr.p50.append(s.now, st.P50NS)
	hr.p95.append(s.now, st.P95NS)
	hr.max.append(s.now, st.MaxNS)
}

// Start ticks Sample every configured period on the wall clock until
// the returned stop function is called. stop takes one final sample
// before returning (so sub-period runs still record history) and is
// idempotent.
func (s *Sampler) Start() (stop func()) { return obs.Every(s.period, s.Sample) }

// Series copies every series out, sorted by name, samples oldest first.
func (s *Sampler) Series() []Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Series, 0, len(s.scalar)+4*len(s.hists))
	for name, r := range s.scalar {
		out = append(out, Series{Name: name, Kind: r.kind, Samples: r.snapshot()})
	}
	for name, hr := range s.hists {
		out = append(out,
			Series{Name: subSeries(name, ".count"), Kind: "histogram", Samples: hr.count.snapshot()},
			Series{Name: subSeries(name, ".p50_ns"), Kind: "histogram", Samples: hr.p50.snapshot()},
			Series{Name: subSeries(name, ".p95_ns"), Kind: "histogram", Samples: hr.p95.snapshot()},
			Series{Name: subSeries(name, ".max_ns"), Kind: "histogram", Samples: hr.max.snapshot()},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// subSeries appends a histogram stat suffix to a series name, keeping
// any encoded label set at the end: "h{m=\"0\"}" + ".count" becomes
// "h.count{m=\"0\"}", so rules and dashboards address labeled stat
// series the same way as unlabeled ones.
func subSeries(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// SeriesDump is the WriteJSON document shape.
type SeriesDump struct {
	PeriodNS int64    `json:"period_ns"`
	Series   []Series `json:"series"`
}

// WriteJSON writes every series as one indented JSON document.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SeriesDump{PeriodNS: int64(s.period), Series: s.Series()})
}

// WriteJSONFile writes the series document to path (the CLIs'
// -series-json flag).
func (s *Sampler) WriteJSONFile(path string) error {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
