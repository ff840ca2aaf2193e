package core

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/perm"
)

// ErrStaleCursor reports a RingCursor outliving a ring mutation: a
// Repair (splice or rebuild) advanced the plan's generation after the
// cursor was opened, so continuing would emit a cycle that no longer
// exists. Open a fresh cursor to stream the post-repair ring.
var ErrStaleCursor = errors.New("core: ring cursor invalidated by a plan mutation")

// RingCursor emits the plan's ring one vertex at a time in cycle
// order. It is the full view of the ring: block segments are replayed
// from the skeleton on demand — the junction search recorded every
// block's entry and the step word of its path, and a replay is at most
// 23 nibble swaps from the entry — so the cursor's live state is one
// 24-vertex array regardless of ring length.
//
// The cursor is a snapshot of one generation of the ring: Repair
// invalidates it (Next returns false and Err reports ErrStaleCursor at
// the next block boundary). Not safe for concurrent use; open one
// cursor per goroutine instead — a replay reads the skeleton and
// nothing else.
type RingCursor struct {
	p   *Plan
	gen int

	seg [blockOrder]perm.Code // current segment, n vertices; emitted up to position i
	n   int
	i   int
	k   int // next block to replay

	err    error
	done   bool
	span   obs.Span
	blocks *obs.Counter // core.stream.blocks; nil without a registry
}

// Cursor opens a ring iterator positioned at the start of the cycle
// (the first vertex of block 0's segment, which equals Ring()[0]). The
// traversal is spanned as core.phase.stream_emit from open to
// exhaustion when the embedder's registry is attached. The span and
// the block counter are resolved here, once, so replaying a block
// touches only an atomic.
func (p *Plan) Cursor() *RingCursor {
	r := p.e.cfg.Obs
	return &RingCursor{p: p, gen: p.gen, span: r.Span("core.phase.stream_emit"), blocks: r.Counter("core.stream.blocks")}
}

// Next returns the next ring vertex, or ok=false when the cycle has
// been fully emitted (or the cursor went stale — check Err). The
// in-buffer step is the allocation-free hot path (see .starlint); the
// per-block refill replays one segment from its step word.
func (c *RingCursor) Next() (perm.Code, bool) {
	if c.i < c.n {
		return c.nextFast(), true
	}
	return c.refill()
}

// nextFast is the per-vertex emit step: a bounds-checked read out of
// the current segment buffer. It sits inside every ring consumer's
// innermost loop (3.6M iterations at n = 10), so it must stay
// allocation-free; the .starlint hotpath entry has hotalloc enforce
// that against refactors.
func (c *RingCursor) nextFast() perm.Code {
	v := c.seg[c.i]
	c.i++
	return v
}

// refill replays the next block segment (the cold path, hit once per
// <= 24 vertices). It is also where exhaustion and staleness are
// decided.
func (c *RingCursor) refill() (perm.Code, bool) {
	var zero perm.Code
	if c.done || c.err != nil {
		return zero, false
	}
	p := c.p
	if c.gen != p.gen {
		c.fail(ErrStaleCursor)
		return zero, false
	}
	if c.k >= p.sk.blocks() {
		c.finish()
		return zero, false
	}
	c.n, c.i = p.sk.replay(c.k, &c.seg), 0
	c.blocks.Inc()
	c.k++
	return c.nextFast(), true
}

func (c *RingCursor) fail(err error) {
	c.err = err
	c.finish()
}

func (c *RingCursor) finish() {
	if !c.done {
		c.done = true
		c.span.End()
	}
}

// Err returns the terminal error, if any: ErrStaleCursor after a
// Repair. A fully drained cursor on an untouched plan always reports
// nil.
func (c *RingCursor) Err() error { return c.err }
