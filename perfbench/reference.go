package main

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/obs"
)

// The end-to-end timings are reported relative to a reference kernel:
// fixed work written here, independent of the repository's code, run
// on the same CPU between the timed operations so that both see the
// machine at the same moment. On a shared host the speed a process
// gets drifts by a factor of 1.5 to 2 within minutes, mostly cache and
// memory pressure from other tenants rather than time taken away, so
// CPU time drifts with it. On a 2-vCPU Xeon guest, over six minutes of
// 3-second windows, the medians of all three workloads' ops had a
// coefficient of variation of 0.22 to 0.28, and their log-correlation
// with this kernel was 0.9 or more; divided by it, the variation fell
// to 0.08 to 0.11. The kernel is hash-map inserts and lookups over a
// set the size of S_7, and a sort, with no allocation once set up; it
// tracked the workloads better than a pure-arithmetic loop, a larger
// map, a sequential memory scan or a pointer chase did.
const (
	refKeys   = 5040                  // map entries per kernel run
	refSort   = 2520                  // values sorted per kernel run
	refShare  = 1.0 / 3               // kernel CPU time per unit of timed-op CPU time
	refMaxDue = 10 * time.Millisecond // kernel CPU time due after one op, at most
	refSeed   = 1                     // the kernel's inputs never change
	refWindow = 4                     // kernel runs on each side of an op that time it

	// refNominal is the kernel's median CPU time on the reference box,
	// a 2-vCPU Xeon guest; setup_s is scaled to it.
	refNominal = 500 * time.Microsecond
)

// reference runs the kernel and divides each timed op by it.
type reference struct {
	cpu  obs.Clock
	keys []uint64
	m    map[uint64]int32
	buf  []uint64
	runs []time.Duration // the kernel's CPU time per run, in run order
	ops  []refOp         // the timed ops' CPU times, in run order
	owed time.Duration   // kernel CPU time still due under refShare
	sink uint64
}

// refOp is one timed op's CPU time and how many kernel runs preceded it.
type refOp struct {
	c  time.Duration
	at int
}

func newReference(cpu obs.Clock) *reference {
	rng := rand.New(rand.NewSource(refSeed))
	ref := &reference{cpu: cpu, keys: make([]uint64, refKeys), m: make(map[uint64]int32, refKeys),
		buf: make([]uint64, refSort)}
	for i := range ref.keys {
		ref.keys[i] = rng.Uint64()
	}
	ref.sample(1) // grows the map's buckets; not a sample
	ref.runs = ref.runs[:0]
	ref.sample(refWindow) // the first op's neighbours on the early side
	return ref
}

// sample runs the kernel n times with the GC off and returns the median
// CPU time of those runs, in nanoseconds.
func (ref *reference) sample(n int) float64 {
	gc := debug.SetGCPercent(-1)
	from := len(ref.runs)
	for i := 0; i < n; i++ {
		ref.once()
	}
	debug.SetGCPercent(gc)
	return medianDuration(ref.runs[from:])
}

// once runs the kernel one time and records its CPU time.
func (ref *reference) once() time.Duration {
	c0 := ref.cpu.Now()
	clear(ref.m)
	for i, k := range ref.keys {
		ref.m[k] = int32(i)
	}
	x := uint64(refSeed)
	for i := 0; i < 3*len(ref.keys); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		ref.sink += uint64(ref.m[ref.keys[x%uint64(len(ref.keys))]])
	}
	for i := range ref.buf {
		x = x*6364136223846793005 + 1442695040888963407
		ref.buf[i] = x
	}
	slices.Sort(ref.buf)
	for _, v := range ref.buf {
		ref.sink += uint64(ref.m[v])
	}
	c := obs.Since(ref.cpu, c0)
	ref.runs = append(ref.runs, c)
	return c
}

// after records one timed op's CPU time, then runs the kernel until its
// total CPU time has caught up with refShare of the ops', or for at
// most refMaxDue after a long op: only the runs nearest an op time it,
// so more would only take time from the ops. The GC is off
// while the kernel runs, so the kernel's time is its own; switching it
// off first finishes any cycle in progress, and that CPU time is
// charged to the op whose allocations started it.
func (ref *reference) after(op time.Duration) {
	at := len(ref.runs)
	ref.owed = min(ref.owed+time.Duration(float64(op)*refShare), refMaxDue)
	if ref.owed > 0 {
		c0 := ref.cpu.Now()
		gc := debug.SetGCPercent(-1)
		op += obs.Since(ref.cpu, c0)
		for ref.owed > 0 {
			ref.owed -= max(ref.once(), time.Microsecond) // a coarse clock still ends the loop
		}
		debug.SetGCPercent(gc)
	}
	ref.ops = append(ref.ops, refOp{c: op, at: at})
}

// rel returns each timed op's CPU time divided by the median of the
// refWindow kernel runs on either side of it: the machine's speed at
// that moment cancels, even when it changes within a run.
func (ref *reference) rel() []float64 {
	ratios := make([]float64, len(ref.ops))
	for i, o := range ref.ops {
		near := ref.runs[max(0, o.at-refWindow):min(len(ref.runs), o.at+refWindow)]
		ratios[i] = float64(o.c) / medianDuration(near)
	}
	return ratios
}

// medianDuration returns the median of ds without reordering them.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return medianFloat(xs)
}
