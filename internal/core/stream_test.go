package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/star"
)

// drain materializes a cursor's whole output, failing the test on any
// cursor error.
func drain(t *testing.T, c *RingCursor) []perm.Code {
	t.Helper()
	var out []perm.Code
	for {
		v, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return out
}

// TestRepairThenStream proves splices are visible through the cursor:
// after a splice fast-path repair, a fresh cursor emits the post-repair
// cycle — two vertices shorter, without the new fault, and healthy
// under the stream verifier.
func TestRepairThenStream(t *testing.T) {
	n := 6
	p := planOn(t, n, Config{})
	victim := interiorOf(t, p, 0)
	if !p.CanSplice(victim) {
		t.Fatal("interior vertex of a healthy block must be spliceable")
	}

	before := p.RingLen()
	rep, err := p.Repair(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != RepairSplice {
		t.Fatalf("outcome %v, want splice", rep.Outcome)
	}
	if p.RingLen() != before-2 {
		t.Fatalf("length %d after splice, want %d", p.RingLen(), before-2)
	}

	got := drain(t, p.Cursor())
	if len(got) != p.RingLen() {
		t.Fatalf("cursor emitted %d vertices, plan holds %d", len(got), p.RingLen())
	}
	for i, v := range got {
		if v == victim {
			t.Fatalf("spliced-out vertex still emitted at %d", i)
		}
	}
	g := star.New(n)
	if _, err := check.RingStream(g, p.Cursor().Next, p.Faults(), p.Result().Guarantee); err != nil {
		t.Fatalf("post-repair stream verification: %v", err)
	}
}

// TestCursorStaleAfterRepair pins the failure mode: a cursor opened
// before a repair must refuse to keep emitting the dead cycle.
func TestCursorStaleAfterRepair(t *testing.T) {
	p := planOn(t, 6, Config{})
	c := p.Cursor()
	for i := 0; i < 5; i++ { // start emitting mid-block
		if _, ok := c.Next(); !ok {
			t.Fatal("cursor ended early")
		}
	}
	victim := interiorOf(t, p, 1)
	if _, err := p.Repair(victim); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if !errors.Is(c.Err(), ErrStaleCursor) {
		t.Fatalf("stale cursor error = %v, want ErrStaleCursor", c.Err())
	}
	// A fresh cursor streams the repaired ring fine.
	if got := drain(t, p.Cursor()); len(got) != p.RingLen() {
		t.Fatalf("fresh cursor %d vertices, want %d", len(got), p.RingLen())
	}
}

// TestStreamingRepairEquivalence drives two independent plans — one
// re-verifying every splice in full, one trusting the segment check —
// through the same random repair sequence and demands identical
// outcomes and rings after every step, splices and rebuilds both; the
// random-access path must agree with the cursor at every position.
func TestStreamingRepairEquivalence(t *testing.T) {
	n := 6
	rng := rand.New(rand.NewSource(77))
	vp := planOn(t, n, Config{VerifyRepairs: true})
	p := planOn(t, n, Config{})

	for step := 0; step < faults.MaxTolerated(n); step++ {
		victim := p.RingAt(rng.Intn(p.RingLen()))
		rv, err := vp.Repair(victim)
		if err != nil {
			t.Fatalf("step %d verified repair: %v", step, err)
		}
		r, err := p.Repair(victim)
		if err != nil {
			t.Fatalf("step %d repair: %v", step, err)
		}
		if rv.Outcome != r.Outcome {
			t.Fatalf("step %d: outcomes diverge: %v vs %v", step, rv.Outcome, r.Outcome)
		}
		got, want := p.Ring(), vp.Ring()
		if len(got) != len(want) {
			t.Fatalf("step %d: lengths diverge: %d vs %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: rings diverge at %d", step, i)
			}
			if p.RingAt(i) != got[i] {
				t.Fatalf("step %d: RingAt(%d) diverges from the cursor", step, i)
			}
		}
	}
}

// TestCursorRegistryAllocs pins the cursor's telemetry to its open:
// opening and draining a cursor on a plan with a registry allocates no
// more than on a plan without one. The stream_emit span and the
// core.stream.blocks counter are resolved once in Cursor, so a
// replayed block touches only an atomic, never the registry's mutex.
func TestCursorRegistryAllocs(t *testing.T) {
	drainAllocs := func(cfg Config) float64 {
		p := planOn(t, 7, cfg)
		return testing.AllocsPerRun(20, func() {
			c := p.Cursor()
			for _, ok := c.Next(); ok; _, ok = c.Next() {
			}
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, withReg := drainAllocs(Config{}), drainAllocs(Config{Obs: obs.NewRegistry()})
	if withReg > bare {
		t.Errorf("cursor on a plan with a registry allocates %.1f times, %.1f without", withReg, bare)
	}
}

// TestCursorNextRun holds NextRun to Next: runs and single vertices
// mixed in any pattern emit the ring Next emits, each run ends at a
// block boundary and starts one when the previous run emptied its
// block, every block is replayed once (core.stream.blocks), and the
// end is nil, repeatedly. A run on a cursor that a repair outdated is
// nil with ErrStaleCursor.
func TestCursorNextRun(t *testing.T) {
	fs := faults.RandomVertices(7, 4, rand.New(rand.NewSource(5)))
	reg := obs.NewRegistry()
	p, err := Embed(7, fs, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, p.Cursor())
	blocks0 := reg.Counter("core.stream.blocks").Value()
	for _, pattern := range []string{"r", "n", "nr", "rnn", "nnnnnr"} {
		c := p.Cursor()
		var got []perm.Code
		for i := 0; ; i++ {
			if pattern[i%len(pattern)] == 'n' {
				v, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, v)
				continue
			}
			run := c.NextRun()
			if run == nil {
				break
			}
			if end := len(got) + len(run); !slices.Contains(p.sk.offsets, end) {
				t.Fatalf("pattern %q: a run ends at %d, inside a block", pattern, end)
			}
			got = append(got, run...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pattern %q: %d vertices, differing from Next's %d", pattern, len(got), len(want))
		}
		if c.NextRun() != nil || c.Err() != nil {
			t.Fatalf("pattern %q: a drained cursor gave a run or %v", pattern, c.Err())
		}
	}
	if got := reg.Counter("core.stream.blocks").Value() - blocks0; got != 5*int64(p.sk.blocks()) {
		t.Errorf("core.stream.blocks rose by %d over 5 drains of %d blocks", got, p.sk.blocks())
	}

	q := planOn(t, 6, Config{})
	c := q.Cursor()
	if run := c.NextRun(); len(run) == 0 {
		t.Fatal("no first run")
	}
	if _, err := q.Repair(interiorOf(t, q, 2)); err != nil {
		t.Fatal(err)
	}
	if run := c.NextRun(); run != nil || !errors.Is(c.Err(), ErrStaleCursor) {
		t.Fatalf("stale cursor: run of %d, error %v; want nil and ErrStaleCursor", len(run), c.Err())
	}
}

// BenchmarkRingCursor measures the cursor's emit rate: one op is a
// full drain of the S_7 ring (5040 vertices, 210 block replays, each
// from its block's entry and step word).
func BenchmarkRingCursor(b *testing.B) {
	e, err := NewEmbedder(7, Config{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := e.Embed(nil)
	if err != nil {
		b.Fatal(err)
	}
	ringLen := p.RingLen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.Cursor()
		count := 0
		for {
			if _, ok := c.Next(); !ok {
				break
			}
			count++
		}
		if count != ringLen {
			b.Fatalf("drained %d vertices, want %d", count, ringLen)
		}
	}
	b.ReportMetric(float64(ringLen*b.N)/b.Elapsed().Seconds(), "vertices/s")
}

// BenchmarkSelfVerify measures the plan's self-verification, the cost
// every embed pays after construction: one op is one Plan.verify of an
// S_n ring with n−3 random vertex faults, the cursor replaying each
// block into the stream verifier one segment per FeedRun, reported per
// ring vertex.
func BenchmarkSelfVerify(b *testing.B) {
	for _, n := range []int{8, 9} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fs := faults.RandomVertices(n, faults.MaxTolerated(n), rand.New(rand.NewSource(1)))
			p, err := Embed(n, fs, Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.verify(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.RingLen()), "ns/vertex")
		})
	}
}
