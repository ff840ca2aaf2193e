// Package prof is the repository's profiling layer: pprof phase labels
// for the embedding pipeline and a runtime/metrics-backed sampler that
// feeds Go runtime health (heap, GC, scheduler) into an obs.Registry.
//
// The rest of the module attributes CPU samples to algorithm phases by
// wrapping work in Do("embed", ...), Do("splice", ...) and so on; any
// CPU profile captured while those run — via StartCPUProfile, the
// -cpuprofile CLI flags, or a live /debug/pprof/profile scrape off
// obs.StartDebugServer — carries a `phase` goroutine label on every
// sample taken inside, so `go tool pprof -tagfocus phase=embed` (or the
// "Tag" views in the web UI) isolates one phase of the pipeline.
//
// RuntimeSampler is the module's single sanctioned reader of
// runtime/metrics (the walltime analyzer flags direct reads elsewhere):
// it publishes heap bytes, GC cycle count, GC pause p95, goroutine
// count and scheduling latency p95 as registry gauges, which then flow
// unchanged into the OpenMetrics /metrics endpoint, export.Sampler time
// series and starmon -attach frames. Like every obs API it is nil-safe:
// NewRuntimeSampler(nil) returns a nil sampler whose methods are no-ops
// costing a pointer test (BenchmarkObsDisabled in internal/core stays
// 0 allocs/op with a disabled sampler in the loop).
package prof

import (
	"context"
	"os"
	"runtime"
	"runtime/pprof"
)

// Do runs fn with the pprof goroutine label phase=<phase> set, so CPU
// samples taken inside are attributable to that phase of the pipeline.
// Labels are inherited by goroutines started inside fn (the parallel
// block-routing pool, for one) and the previous label set is restored
// when fn returns, so nested phases shadow correctly.
func Do(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) {
		fn()
	})
}

// Label is a phase label built once, for a phase entered too often to
// pay Do's per-call cost: Do builds its label set, a map and a context
// on every call, Label.Do allocates nothing of its own.
type Label struct{ ctx context.Context }

// NewLabel returns the label phase=<phase>.
func NewLabel(phase string) Label {
	return Label{pprof.WithLabels(context.Background(), pprof.Labels("phase", phase))}
}

// Do runs fn with the label set. Like Do, it leaves the goroutine's
// label set empty when fn returns.
func (l Label) Do(fn func()) {
	defer pprof.SetGoroutineLabels(context.Background())
	pprof.SetGoroutineLabels(l.ctx)
	fn()
}

// StartCPUProfile starts a CPU profile into path and returns the stop
// function that ends the profile and closes the file. It backs the
// CLIs' -cpuprofile flag.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile runs a GC (so the profile reflects live objects, not
// collection timing) and writes the heap profile to path. It backs the
// CLIs' -memprofile flag.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
