package main

import (
	"math"
	"testing"
	"time"
)

// stepClock advances by step on every reading.
type stepClock struct {
	now, step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.now += c.step
	return time.Unix(0, int64(c.now))
}

// TestReferenceCancelsDrift: an op that always costs three kernel runs
// reads 3 while the machine's speed halves mid-run.
func TestReferenceCancelsDrift(t *testing.T) {
	ref := &reference{}
	for i := 0; i < 40; i++ {
		d := time.Millisecond
		if i >= 20 {
			d = 2 * time.Millisecond
		}
		ref.runs = append(ref.runs, d)
		if i%5 == 2 { // no op sits where its window is mostly the other speed
			ref.ops = append(ref.ops, refOp{c: 3 * d, at: len(ref.runs)})
		}
	}
	rel := ref.rel()
	if len(rel) != 8 {
		t.Fatalf("%d ratios, want 8", len(rel))
	}
	for i, r := range rel {
		if math.Abs(r-3) > 1e-9 {
			t.Errorf("op %d: ratio %g, want 3", i, r)
		}
	}
	if m, q := meanFloat(rel), quantileFloat(rel, 0.95); m != 3 || q != 3 {
		t.Errorf("mean %g, p95 %g, want 3", m, q)
	}
}

// TestReferenceAfterKeepsShare: after an op the kernel runs for
// refShare of its CPU time, capped at refMaxDue, and the time spent
// finishing a GC cycle is charged to the op.
func TestReferenceAfterKeepsShare(t *testing.T) {
	clock := &stepClock{step: time.Millisecond}
	ref := newReference(clock)
	if len(ref.runs) != refWindow {
		t.Fatalf("%d warm-up runs, want %d", len(ref.runs), refWindow)
	}
	ref.after(6 * time.Millisecond) // 2ms due: two 1ms runs
	if got := len(ref.runs) - refWindow; got != 2 {
		t.Errorf("%d kernel runs after a 6ms op, want 2", got)
	}
	if o := ref.ops[0]; o.c != 7*time.Millisecond || o.at != refWindow {
		t.Errorf("op recorded as %v after run %d, want 7ms after run %d", o.c, o.at, refWindow)
	}
	n := len(ref.runs)
	ref.after(time.Second)
	if got := len(ref.runs) - n; got != int(refMaxDue/time.Millisecond) {
		t.Errorf("%d kernel runs after a 1s op, want %d", got, refMaxDue/time.Millisecond)
	}
}
