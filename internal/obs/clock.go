package obs

import (
	"sync"
	"time"
)

// Clock is an injectable time source. Production code reads Wall;
// tests and the deterministic simulator inject a Manual clock so timing
// paths are exercised without real elapsed time.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Wall is the real wall clock. It is the module's single sanctioned
// reader of time.Now — everywhere else the walltime analyzer requires
// timing to flow through an injected Clock.
var Wall Clock = wallClock{}

// Since returns the time elapsed on c since t; a nil clock reads Wall.
// Negative elapsed times (a manual clock stepped backwards) clamp to 0.
func Since(c Clock, t time.Time) time.Duration {
	if c == nil {
		c = Wall
	}
	d := c.Now().Sub(t)
	if d < 0 {
		d = 0
	}
	return d
}

// Every calls fn every period (which must be positive) on the wall
// clock until the returned stop function is called. stop ends the loop,
// waits for its goroutine to exit, then calls fn once more, so a run
// shorter than one period still records its end state; later calls to
// stop do nothing.
func Every(period time.Duration, fn func()) (stop func()) {
	ticker := time.NewTicker(period)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
	return sync.OnceFunc(func() {
		ticker.Stop()
		close(done)
		<-finished
		fn()
	})
}

// Manual is a Clock that only moves when advanced explicitly. It is
// safe for concurrent use.
type Manual struct {
	mu  sync.Mutex
	now time.Time
}

// NewManual returns a manual clock frozen at start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the clock's current instant.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d (or backward for negative d).
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	m.mu.Unlock()
}
