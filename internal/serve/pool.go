package serve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// pool is the per-dimension shard: one Embedder for S_n and a fixed
// number of slots behind a buffered channel. An Embedder is immutable
// (dimension, graph and config), so concurrent requests share it and
// the slots only bound how many embed at once. Acquire admits up to
// size concurrent holders immediately; beyond that callers queue, and
// once the queue itself exceeds maxQueue the request is shed so a burst
// degrades into fast 429s instead of an unbounded latency tail.
type pool struct {
	eng   *core.Embedder
	slots chan struct{}
	// queued counts callers blocked in Acquire; maxQueue <= 0 disables
	// shedding (unbounded queue).
	queued   atomic.Int64
	maxQueue int
	depth    *obs.Gauge // serve.queue_depth{n}
}

func newPool(n, size, maxQueue int, cfg core.Config, depth *obs.Gauge) (*pool, error) {
	if size < 1 {
		size = 1
	}
	e, err := core.NewEmbedder(n, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: pool n=%d: %w", n, err)
	}
	p := &pool{eng: e, slots: make(chan struct{}, size), maxQueue: maxQueue, depth: depth}
	for i := 0; i < size; i++ {
		p.slots <- struct{}{}
	}
	return p, nil
}

// acquire takes a slot, queueing when the shard is busy. It returns
// false — without blocking — when the queue is already at its
// admission limit; the caller turns that into a 429.
func (p *pool) acquire() bool {
	select {
	case <-p.slots:
		return true
	default:
	}
	q := p.queued.Add(1)
	if p.maxQueue > 0 && q > int64(p.maxQueue) {
		p.queued.Add(-1)
		return false
	}
	p.depth.Add(1)
	<-p.slots
	p.depth.Add(-1)
	p.queued.Add(-1)
	return true
}

// release returns a slot to the shard.
func (p *pool) release() { p.slots <- struct{}{} }

// saturated reports whether every slot is currently held — the
// readiness signal: a saturated shard still serves, but new load will
// queue or shed.
func (p *pool) saturated() bool { return len(p.slots) == 0 }
