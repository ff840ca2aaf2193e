package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is one bucket per bit length of the nanosecond value:
// bucket 0 holds exactly 0ns, bucket b holds [2^(b-1), 2^b). int64
// nanoseconds never exceed bit length 63.
const histBuckets = 64

// Histogram accumulates durations in power-of-two nanosecond buckets.
// Recording is three atomic adds plus a CAS loop for the max — no
// locks, no allocation — so it is safe on concurrent hot paths. The
// zero value is ready to use; a nil *Histogram discards observations.
//
// Quantiles are bucket upper bounds, i.e. correct to within a factor
// of two, which is ample for the phase-timing questions this layer
// answers (orders of magnitude, regressions, outliers).
type Histogram struct {
	count   int64
	sum     int64
	max     int64
	buckets [histBuckets]int64

	// Slowest-K exemplars, touched only by the traced span path
	// (ObserveTrace); plain Observe never takes the lock, so hot
	// paths stay atomic-only.
	exMu sync.Mutex
	ex   [histExemplars]Exemplar
}

// histExemplars is the per-histogram exemplar capacity: the K slowest
// traced observations kept for OpenMetrics exemplar exposition.
const histExemplars = 4

// Exemplar ties one observed duration to the trace that produced it —
// the OpenMetrics exemplar model, minus labels we do not have. A zero
// Trace marks an empty slot.
type Exemplar struct {
	NS    int64   `json:"ns"`
	Trace TraceID `json:"trace_id"`
}

// Observe records one duration. Negative durations clamp to zero.
//
//starlint:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, ns)
	for {
		cur := atomic.LoadInt64(&h.max)
		if ns <= cur || atomic.CompareAndSwapInt64(&h.max, cur, ns) {
			break
		}
	}
	atomic.AddInt64(&h.buckets[bits.Len64(uint64(ns))], 1)
}

// ObserveTrace records one duration like Observe and, when trace is
// nonzero, competes it into the slowest-K exemplar slots. Only traced
// span Ends reach this path, so the mutex never touches the
// atomic-only hot paths.
func (h *Histogram) ObserveTrace(d time.Duration, trace TraceID) {
	h.Observe(d)
	if h == nil || trace == 0 {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.exMu.Lock()
	min := 0
	for i := 1; i < histExemplars; i++ {
		if h.ex[min].Trace == 0 {
			break // an empty slot is always the victim
		}
		if h.ex[i].Trace == 0 || h.ex[i].NS < h.ex[min].NS {
			min = i
		}
	}
	if h.ex[min].Trace == 0 || ns > h.ex[min].NS {
		h.ex[min] = Exemplar{NS: ns, Trace: trace}
	}
	h.exMu.Unlock()
}

// Exemplars returns the retained slowest traced observations, slowest
// first. Empty (and allocation-free) when nothing traced was observed.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	h.exMu.Lock()
	var out []Exemplar
	for _, e := range h.ex {
		if e.Trace != 0 {
			out = append(out, e)
		}
	}
	h.exMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].NS > out[j].NS })
	return out
}

// HistogramStats is a histogram snapshot: counts, total, and the
// p50/p95/max nanosecond marks. Exemplars and Buckets are populated
// only by Registry.Snapshot — Stats leaves them nil so the export
// Sampler's steady-state Visit path stays allocation-free. Buckets is
// the raw per-bit-length bucket array (trimmed of trailing zeros).
type HistogramStats struct {
	Count     int64      `json:"count"`
	SumNS     int64      `json:"sum_ns"`
	P50NS     int64      `json:"p50_ns"`
	P95NS     int64      `json:"p95_ns"`
	MaxNS     int64      `json:"max_ns"`
	Buckets   []int64    `json:"buckets,omitempty"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Stats snapshots the histogram. Quantiles are clamped to the observed
// maximum so a single sample reports p50 = p95 = max.
func (h *Histogram) Stats() HistogramStats {
	var s HistogramStats
	if h == nil {
		return s
	}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = atomic.LoadInt64(&h.buckets[i])
	}
	s.Count = atomic.LoadInt64(&h.count)
	s.SumNS = atomic.LoadInt64(&h.sum)
	s.MaxNS = atomic.LoadInt64(&h.max)
	s.P50NS = quantile(&counts, s.Count, 0.50, s.MaxNS)
	s.P95NS = quantile(&counts, s.Count, 0.95, s.MaxNS)
	return s
}

// BucketCounts returns the per-bucket observation counts, trimmed of
// trailing zero buckets (nil when nothing was observed). Bucket b
// holds durations of nanosecond bit length b; see histBuckets.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	hi := -1
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = atomic.LoadInt64(&h.buckets[i])
		if counts[i] != 0 {
			hi = i
		}
	}
	if hi < 0 {
		return nil
	}
	out := make([]int64, hi+1)
	copy(out, counts[:hi+1])
	return out
}

// quantile returns the upper bound of the bucket containing the q-th
// ranked observation, clamped to max.
func quantile(counts *[histBuckets]int64, total int64, q float64, max int64) int64 {
	if total <= 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range counts {
		seen += c
		if seen >= rank {
			var hi int64
			if b > 0 {
				hi = int64(1)<<uint(b) - 1
			}
			if hi > max {
				hi = max
			}
			return hi
		}
	}
	return max
}
