package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// layer names one traced call site. Spans are recorded by the
// benchmark around calls into a package's public functions, so a
// layer is "time spent inside that call", seen from outside.
type layer uint8

const (
	lCycle         layer = iota // one workload iteration (root)
	lOp                         // the timed operation of one iteration
	lDecompose                  // outside-in layer calls replaying an embed
	lEmbed                      // core: Embedder.Embed
	lRepairSplice               // core: Plan.Repair that spliced
	lRepairRebuild              // core: Plan.Repair that rebuilt
	lRepairOther                // core: Plan.Repair on a spare (no re-route)
	lSeparation                 // faults: Set.SeparatingPositions
	lBuildR4                    // superring, via core.BuildR4
	lRoute                      // core: core.RouteR4 (junction, block paths, assemble)
	lBlockPath                  // pathsearch: Block.Path
	lCheckRing                  // check: check.Ring
	lCheckStream                // check: check.RingStream on an in-memory ring
	lCursor                     // core: draining Plan.Cursor
	lSave                       // ringio.WriteBinaryStream fed by the cursor
	lLoadVerify                 // ringio.ReadBinaryStream into check.RingStream
	lRingioWrite                // ringio: WriteBinaryStream from memory
	lRingioRead                 // ringio: draining ReadBinaryStream
	lRequest                    // client: one HTTP request, due to body read
	lQueue                      // client: due time to send
	lExchange                   // client: send to response fully read
	lParse                      // serve: serve.ParseRequest
	lEngine                     // serve: the engine calls of a request, no HTTP
	lHandlerEmbed               // serve: Server.Handler() on /embed
	lHandlerRepair              // serve: Server.Handler() on /repair
	lHandlerRing                // serve: Server.Handler() on /ring
	lRingEncode                 // serve: /ring's text encoding of a cursor
	numLayers
)

var layerNames = [numLayers]string{
	lCycle:         "bench.cycle",
	lOp:            "bench.op",
	lDecompose:     "bench.decompose",
	lEmbed:         "core.embed",
	lRepairSplice:  "core.repair_splice",
	lRepairRebuild: "core.repair_rebuild",
	lRepairOther:   "core.repair_other",
	lSeparation:    "faults.separation",
	lBuildR4:       "superring.build_r4",
	lRoute:         "core.route",
	lBlockPath:     "pathsearch.block_path",
	lCheckRing:     "check.ring",
	lCheckStream:   "check.stream",
	lCursor:        "core.cursor",
	lSave:          "stream.save",
	lLoadVerify:    "stream.load_verify",
	lRingioWrite:   "ringio.write",
	lRingioRead:    "ringio.read",
	lRequest:       "client.request",
	lQueue:         "client.queue",
	lExchange:      "client.exchange",
	lParse:         "serve.parse",
	lEngine:        "serve.engine",
	lHandlerEmbed:  "serve.embed.handler",
	lHandlerRepair: "serve.repair.handler",
	lHandlerRing:   "serve.ring.handler",
	lRingEncode:    "serve.ring_encode",
}

// noParent marks a root span.
const noParent = -1

// spanRec is one recorded interval, in offsets from the tracer's start.
type spanRec struct {
	parent     int32
	layer      layer
	start, end time.Duration
}

// tracer keeps every span of a traced run in memory; write dumps them
// when the run ends, so recording costs an append and a clock read. A
// nil *tracer is the untraced state: begin, end and put do nothing. It
// is used from one goroutine. Callers that already time a call, and the
// concurrent open-loop client, hand over their own instants with put.
type tracer struct {
	clock obs.Clock
	t0    time.Time
	spans []spanRec
}

func newTracer(clock obs.Clock) *tracer {
	return &tracer{clock: clock, t0: clock.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(l layer, parent int32) int32 {
	if t == nil {
		return noParent
	}
	now := obs.Since(t.clock, t.t0)
	t.spans = append(t.spans, spanRec{parent: parent, layer: l, start: now, end: now})
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.end = obs.Since(t.clock, t.t0)
	return s.end - s.start
}

// put records a finished span from absolute instants.
func (t *tracer) put(l layer, parent int32, start, end time.Time) int32 {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, spanRec{parent: parent, layer: l, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return int32(len(t.spans) - 1)
}

// selfTimes returns every span's duration minus the part its children
// cover, indexed like t.spans.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// byLayer groups span self times by layer.
func (t *tracer) byLayer() [numLayers]samples {
	var out [numLayers]samples
	for i, d := range t.selfTimes() {
		out[t.spans[i].layer].add(d)
	}
	return out
}

// spanJSON is one line of the span dump.
type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// write dumps the spans as NDJSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := t.selfTimes()
	for i, s := range t.spans {
		if err := enc.Encode(spanJSON{
			ID: i, Parent: s.parent, Name: layerNames[s.layer],
			StartNS: int64(s.start), DurNS: int64(s.end - s.start), SelfNS: int64(self[i]),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
