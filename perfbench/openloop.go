package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// shot is one open-loop request's timeline, in offsets from the loop's
// start: when it was due, when a worker took it up, when it was sent
// and when its response had been read.
type shot struct {
	due, picked, sent, done time.Duration
	err                     error
}

// latency is due to done: it counts the wait a stall imposes on the
// requests scheduled behind it, not just the service time.
func (s shot) latency() time.Duration { return s.done - s.due }

// queue is due to sent: the time the request waited for a free
// connection (or for a late generator).
func (s shot) queue() time.Duration { return s.sent - s.due }

// lag is the generator's own lateness: how long after the later of
// its due time and its pick-up the request went out. It is 0 for a
// perfect timer; a large value means the run did not offer the
// scheduled load and its latencies are suspect.
func (s shot) lag() time.Duration { return s.sent - max(s.due, s.picked) }

// openLoop sends request i at due[i] (offsets from the start) over a
// fixed set of workers, whatever the state of earlier requests: a
// worker takes the next request in order, sleeps until it is due, and
// calls do. When every worker is busy the request waits, and that wait
// counts in its latency. It returns once every request has completed,
// with the loop's start instant.
func openLoop(clock obs.Clock, sleep func(time.Duration), workers int, due []time.Duration,
	do func(worker, i int) error) ([]shot, time.Time) {
	shots := make([]shot, len(due))
	start := clock.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				s := shot{due: due[i], picked: obs.Since(clock, start)}
				if wait := s.due - s.picked; wait > 0 {
					sleep(wait)
				}
				s.sent = obs.Since(clock, start)
				s.err = do(w, i)
				s.done = obs.Since(clock, start)
				shots[i] = s
			}
		}(w)
	}
	wg.Wait()
	return shots, start
}
