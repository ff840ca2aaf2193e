package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestOpenLoopAccounting drives one worker on a manual clock: every
// request takes 3ms, sleeping oversleeps by 100µs. Requests that come
// due while the worker is busy queue, and their latency runs from the
// due time; the oversleep shows as generator lag.
func TestOpenLoopAccounting(t *testing.T) {
	const ms = time.Millisecond
	clock := obs.NewManual(time.Unix(0, 0))
	oversleep := 100 * time.Microsecond
	sleep := func(d time.Duration) { clock.Advance(d + oversleep) }
	due := []time.Duration{0, 1 * ms, 2 * ms, 10 * ms}
	var order []int
	shots, start := openLoop(clock, sleep, 1, due, func(w, i int) error {
		order = append(order, i)
		clock.Advance(3 * ms)
		return nil
	})
	if !start.Equal(time.Unix(0, 0)) {
		t.Errorf("start = %v", start)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
	want := []struct{ latency, queue, lag time.Duration }{
		{3 * ms, 0, 0},
		{5 * ms, 2 * ms, 0},
		{7 * ms, 4 * ms, 0},
		{3*ms + oversleep, oversleep, oversleep},
	}
	for i, w := range want {
		s := shots[i]
		if s.latency() != w.latency || s.queue() != w.queue || s.lag() != w.lag {
			t.Errorf("shot %d: latency %v queue %v lag %v, want %v %v %v",
				i, s.latency(), s.queue(), s.lag(), w.latency, w.queue, w.lag)
		}
	}
}

func TestOpenLoopRecordsErrors(t *testing.T) {
	clock := obs.NewManual(time.Unix(0, 0))
	due := []time.Duration{0, 0, 0}
	shots, _ := openLoop(clock, clock.Advance, 2, due, func(w, i int) error {
		if i == 1 {
			return errNoOps
		}
		return nil
	})
	var tl tally
	r := &endToEndRun{limit: time.Second}
	record(r, &tl, shots)
	if tl.attempted != 3 || tl.failed != 1 || r.ops != 2 || r.good != 2 {
		t.Errorf("attempted %d failed %d ops %d good %d", tl.attempted, tl.failed, r.ops, r.good)
	}
}
