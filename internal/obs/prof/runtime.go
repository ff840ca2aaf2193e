package prof

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
)

// The runtime/metrics samples the sampler reads, in the order they sit
// in RuntimeSampler.samples. Histogram-kind samples are reduced to a
// p95 before publication.
const (
	sampleHeapBytes  = "/memory/classes/heap/objects:bytes"
	sampleGCCycles   = "/gc/cycles/total:gc-cycles"
	sampleGCPauses   = "/gc/pauses:seconds"
	sampleGoroutines = "/sched/goroutines:goroutines"
	sampleSchedLat   = "/sched/latencies:seconds"
)

// RuntimeSampler publishes Go runtime health as registry gauges:
//
//	runtime.mem.heap_bytes        bytes of live heap objects
//	runtime.mem.heap_peak_bytes   high-water mark of heap_bytes across samples
//	runtime.gc.cycles             completed GC cycles
//	runtime.gc.pause_p95_ns       p95 stop-the-world pause, ns
//	runtime.sched.goroutines      live goroutines
//	runtime.sched.latency_p95_ns  p95 goroutine scheduling latency, ns
//
// heap_peak_bytes is the sampler's own reduction — the largest live-heap
// sample it has seen — so a bounded-memory claim (e.g. a streaming embed
// that never materializes its ring) is checkable from a single final
// snapshot instead of a full time series.
//
// Because they are ordinary gauges, the values flow unchanged into
// every existing export path: the OpenMetrics /metrics endpoint (as
// runtime_mem_heap_bytes etc.), export.Sampler time series, -metrics-
// json snapshots and starmon -attach frames (which render them as a
// dedicated runtime section).
//
// The sample buffer is allocated once; Sample reuses it, so after the
// first call (which lets runtime/metrics size its histogram buffers)
// the steady state allocates nothing. A nil *RuntimeSampler — what
// NewRuntimeSampler returns for a nil registry — is the disabled state:
// Sample and Start are no-ops costing a pointer test.
type RuntimeSampler struct {
	heap       *obs.Gauge
	heapPeak   *obs.Gauge
	gcCycles   *obs.Gauge
	gcPauseP95 *obs.Gauge
	goroutines *obs.Gauge
	schedP95   *obs.Gauge

	mu      sync.Mutex
	peak    int64
	samples []metrics.Sample
}

// NewRuntimeSampler resolves the runtime gauges on reg; nil in, nil
// (disabled) out.
func NewRuntimeSampler(reg *obs.Registry) *RuntimeSampler {
	if reg == nil {
		return nil
	}
	return &RuntimeSampler{
		heap:       reg.Gauge("runtime.mem.heap_bytes"),
		heapPeak:   reg.Gauge("runtime.mem.heap_peak_bytes"),
		gcCycles:   reg.Gauge("runtime.gc.cycles"),
		gcPauseP95: reg.Gauge("runtime.gc.pause_p95_ns"),
		goroutines: reg.Gauge("runtime.sched.goroutines"),
		schedP95:   reg.Gauge("runtime.sched.latency_p95_ns"),
		samples: []metrics.Sample{
			{Name: sampleHeapBytes},
			{Name: sampleGCCycles},
			{Name: sampleGCPauses},
			{Name: sampleGoroutines},
			{Name: sampleSchedLat},
		},
	}
}

// Sample reads the runtime metrics once and updates the gauges.
func (s *RuntimeSampler) Sample() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)
	for i := range s.samples {
		var v int64
		switch s.samples[i].Value.Kind() {
		case metrics.KindUint64:
			u := s.samples[i].Value.Uint64()
			if u > math.MaxInt64 {
				u = math.MaxInt64
			}
			v = int64(u)
		case metrics.KindFloat64Histogram:
			v = histQuantileNS(s.samples[i].Value.Float64Histogram(), 0.95)
		default:
			// KindBad: the metric does not exist on this runtime; leave
			// the gauge at its last value (zero before the first hit).
			continue
		}
		switch s.samples[i].Name {
		case sampleHeapBytes:
			s.heap.Set(v)
			if v > s.peak {
				s.peak = v
			}
			s.heapPeak.Set(s.peak)
		case sampleGCCycles:
			s.gcCycles.Set(v)
		case sampleGCPauses:
			s.gcPauseP95.Set(v)
		case sampleGoroutines:
			s.goroutines.Set(v)
		case sampleSchedLat:
			s.schedP95.Set(v)
		}
	}
}

// HeapLiveBytes reads the live-heap size once, without a registry: the
// one-shot form of the runtime.mem.heap_bytes gauge, for callers (the
// harness's scaling experiment) that want a before/after measurement
// rather than a sampling loop. prof is the sanctioned runtime/metrics
// reader, so instrumented code does not import runtime directly.
func HeapLiveBytes() int64 {
	samples := []metrics.Sample{{Name: sampleHeapBytes}}
	metrics.Read(samples)
	if samples[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	u := samples[0].Value.Uint64()
	if u > math.MaxInt64 {
		u = math.MaxInt64
	}
	return int64(u)
}

// histQuantileNS reduces a runtime/metrics seconds histogram to the
// bucket boundary at quantile q, in nanoseconds, without allocating.
// The returned value is the upper bound of the bucket the quantile
// falls in (the lower bound for the +Inf overflow bucket), matching the
// "quantile estimate from log buckets" convention obs.Histogram uses.
func histQuantileNS(h *metrics.Float64Histogram, q float64) int64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			// Bucket i spans [Buckets[i], Buckets[i+1]).
			bound := h.Buckets[i+1]
			if math.IsInf(bound, +1) {
				bound = h.Buckets[i]
			}
			if math.IsInf(bound, -1) {
				return 0
			}
			return int64(bound * 1e9)
		}
	}
	return 0
}

// Start samples immediately, then every period on the wall clock, until
// the returned stop function is called. stop takes one final sample —
// mirroring export.Sampler.Start, so runs shorter than one period still
// publish their end state — and is idempotent.
func (s *RuntimeSampler) Start(period time.Duration) (stop func()) {
	if s == nil {
		return func() {}
	}
	if period <= 0 {
		period = time.Second
	}
	s.Sample()
	return obs.Every(period, s.Sample)
}
