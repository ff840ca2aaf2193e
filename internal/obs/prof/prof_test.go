package prof

import (
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/obs"
)

// spin burns CPU until deadline, returning a data dependency so the
// loop cannot be optimized away. Tests run it under Do(...) to give the
// 100 Hz CPU profiler labeled samples to collect.
func spin(deadline time.Time) uint64 {
	var x uint64 = 88172645463325252
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<14; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	return x
}

var spinSink uint64

func TestRuntimeSamplerPublishesGauges(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewRuntimeSampler(reg)
	s.Sample()
	snap := reg.Snapshot()
	for _, name := range []string{
		"runtime.mem.heap_bytes", "runtime.gc.cycles", "runtime.gc.pause_p95_ns",
		"runtime.sched.goroutines", "runtime.sched.latency_p95_ns",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s missing from snapshot", name)
		}
	}
	if v := snap.Gauges["runtime.mem.heap_bytes"]; v <= 0 {
		t.Errorf("runtime.mem.heap_bytes = %d, want > 0", v)
	}
	if v := snap.Gauges["runtime.sched.goroutines"]; v < 1 {
		t.Errorf("runtime.sched.goroutines = %d, want >= 1", v)
	}
}

// TestRuntimeSamplerDisabled pins the nil (disabled) path: no-ops, no
// allocations — the same contract every obs hook honors.
func TestRuntimeSamplerDisabled(t *testing.T) {
	s := NewRuntimeSampler(nil)
	if s != nil {
		t.Fatal("NewRuntimeSampler(nil) must return nil")
	}
	stop := s.Start(time.Millisecond)
	stop()
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Sample()
	}); allocs != 0 {
		t.Errorf("disabled Sample allocates %.1f times per call", allocs)
	}
}

func TestRuntimeSamplerStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewRuntimeSampler(reg)
	stop := s.Start(time.Hour) // period never fires; Start and stop each sample once
	stop()
	stop() // idempotent
	if v := reg.Gauge("runtime.sched.goroutines").Value(); v < 1 {
		t.Errorf("runtime.sched.goroutines = %d after Start/stop, want >= 1", v)
	}
}

func TestHistQuantileNS(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{10, 80, 10},
		Buckets: []float64{0, 1e-6, 1e-3, math.Inf(1)},
	}
	// p95 lands in the last bucket, whose upper bound is +Inf; the lower
	// bound (1 ms) is reported instead.
	if got := histQuantileNS(h, 0.95); got != 1e6 {
		t.Errorf("p95 = %d ns, want 1e6", got)
	}
	if got := histQuantileNS(h, 0.50); got != 1e6 {
		t.Errorf("p50 = %d ns, want 1e6 (upper bound of the middle bucket)", got)
	}
	if got := histQuantileNS(&metrics.Float64Histogram{}, 0.95); got != 0 {
		t.Errorf("empty histogram p95 = %d, want 0", got)
	}
	if got := histQuantileNS(nil, 0.95); got != 0 {
		t.Errorf("nil histogram p95 = %d, want 0", got)
	}
}

// TestCPUProfileLabeled captures a real CPU profile around a labeled
// workload and asserts the phase label survives into the profile's
// samples — the contract the -cpuprofile CLI flags rely on.
func TestCPUProfileLabeled(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for ~1s")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	Do("embed", func() {
		spinSink = spin(time.Now().Add(time.Second / 2))
	})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := CPUProfileHasLabel(data, "phase", "embed")
	if err != nil {
		t.Fatalf("parse profile: %v", err)
	}
	if !ok {
		t.Error("no sample carries phase=embed; labels are not reaching the profile")
	}
	// A label never set must not be found (guards the parser against
	// trivially returning true).
	if ok, err := CPUProfileHasLabel(data, "phase", "no-such-phase"); err != nil || ok {
		t.Errorf("phase=no-such-phase reported %v, %v; want false, nil", ok, err)
	}
}

func TestCPUProfileHasLabelRejectsGarbage(t *testing.T) {
	if _, err := CPUProfileHasLabel([]byte{0x1f, 0x8b, 0x00}, "phase", "embed"); err == nil {
		t.Error("truncated gzip accepted")
	}
	// A raw buffer that parses as an empty/unknown message simply finds
	// nothing.
	if ok, err := CPUProfileHasLabel(nil, "phase", "embed"); err != nil || ok {
		t.Errorf("empty profile: got %v, %v; want false, nil", ok, err)
	}
}

func BenchmarkRuntimeSamplerSample(b *testing.B) {
	s := NewRuntimeSampler(obs.NewRegistry())
	s.Sample() // let runtime/metrics size its histogram buffers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkRuntimeSamplerDisabled(b *testing.B) {
	var s *RuntimeSampler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}
