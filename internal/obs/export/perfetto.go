package export

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Chrome trace_event JSON (the Trace Event Format), loadable by
// Perfetto and chrome://tracing. Every completed obs span becomes one
// "complete" ("ph":"X") event. Spans are grouped into one named track
// per trace id (untraced spans share a track), nested within a track by
// lane assignment so overlapping siblings never collide, and parent →
// child causality is drawn as flow events ("ph":"s"/"f") across
// tracks — the trace renders as a real causal timeline, not a flat row.

// TraceEvent is one trace_event record. Timestamps and durations are
// microseconds, the format's native unit. ID/BP serve flow events; Args
// carries the trace identity of traced spans.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// Trace is the JSON-object form of a trace file.
type Trace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// interval is one occupied [start, end) slot in a lane.
type interval struct{ s, e int64 }

// partialOverlap reports whether two intervals overlap without either
// containing the other — the one arrangement a single trace_event lane
// cannot render (containment nests; disjoint stacks side by side).
func partialOverlap(s1, e1, s2, e2 int64) bool {
	if e1 <= s2 || e2 <= s1 {
		return false
	}
	if s2 >= s1 && e2 <= e1 {
		return false
	}
	if s1 >= s2 && e1 <= e2 {
		return false
	}
	return true
}

// NewTrace converts recorded span events into a trace. Timestamps are
// rebased to the earliest span so the timeline starts near zero. Each
// trace id gets its own contiguous band of tids, labeled by a
// thread_name metadata event; within a band, spans go to the lowest
// lane where they either nest or sit disjoint. Traced spans carry
// trace_id/span_id/parent_span_id args, and every parent → child edge
// emits a flow-start on the parent's lane and a flow-finish on the
// child's, so Perfetto draws the causal arrows.
func NewTrace(events []obs.Event) Trace {
	tr := Trace{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}
	var base int64
	for i, e := range events {
		if i == 0 || e.StartNS < base {
			base = e.StartNS
		}
	}

	// Sort by start, longer span first on ties, so parents claim their
	// lane before the children they contain.
	sorted := make([]obs.Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].StartNS != sorted[j].StartNS {
			return sorted[i].StartNS < sorted[j].StartNS
		}
		return sorted[i].DurNS > sorted[j].DurNS
	})

	// Group into one band per trace id, in order of first appearance.
	type group struct {
		trace obs.TraceID
		evs   []obs.Event
	}
	var groups []*group
	byTrace := map[obs.TraceID]*group{}
	for _, e := range sorted {
		g, ok := byTrace[e.Trace]
		if !ok {
			g = &group{trace: e.Trace}
			byTrace[e.Trace] = g
			groups = append(groups, g)
		}
		g.evs = append(g.evs, e)
	}

	spanTID := map[obs.SpanID]int{}
	tid := 1
	for _, g := range groups {
		bandStart := tid
		var lanes [][]interval
		laneOf := make([]int, len(g.evs))
		for i, e := range g.evs {
			s, en := e.StartNS, e.StartNS+e.DurNS
			lane := -1
			for li := range lanes {
				fits := true
				for _, o := range lanes[li] {
					if partialOverlap(s, en, o.s, o.e) {
						fits = false
						break
					}
				}
				if fits {
					lane = li
					break
				}
			}
			if lane < 0 {
				lanes = append(lanes, nil)
				lane = len(lanes) - 1
			}
			lanes[lane] = append(lanes[lane], interval{s, en})
			laneOf[i] = lane
		}

		label := "untraced"
		if g.trace != 0 {
			label = "trace " + g.trace.String()
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", PID: 1, TID: bandStart,
			Args: map[string]string{"name": label},
		})

		for i, e := range g.evs {
			t := bandStart + laneOf[i]
			ev := TraceEvent{
				Name: e.Name, Cat: "obs", Ph: "X",
				TS: float64(e.StartNS-base) / 1e3, Dur: float64(e.DurNS) / 1e3,
				PID: 1, TID: t,
			}
			if e.Trace != 0 {
				ev.Args = map[string]string{
					"trace_id": e.Trace.String(),
					"span_id":  e.Span.String(),
				}
				if e.Parent != 0 {
					ev.Args["parent_span_id"] = e.Parent.String()
				}
				spanTID[e.Span] = t
			}
			tr.TraceEvents = append(tr.TraceEvents, ev)
		}
		tid += len(lanes)
	}

	// Causal arrows: one flow per parent → child edge whose parent span
	// completed inside this recording.
	for _, e := range sorted {
		if e.Parent == 0 || e.Span == 0 {
			continue
		}
		ptid, ok := spanTID[e.Parent]
		if !ok {
			continue
		}
		ts := float64(e.StartNS-base) / 1e3
		id := e.Span.String()
		tr.TraceEvents = append(tr.TraceEvents,
			TraceEvent{Name: "obs.flow", Cat: "obs.flow", Ph: "s", TS: ts, PID: 1, TID: ptid, ID: id},
			TraceEvent{Name: "obs.flow", Cat: "obs.flow", Ph: "f", BP: "e", TS: ts, PID: 1, TID: spanTID[e.Span], ID: id},
		)
	}
	return tr
}

// WriteTrace writes the spans as one indented trace_event JSON object.
func WriteTrace(w io.Writer, events []obs.Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewTrace(events))
}

// ValidateTrace checks that data is a Perfetto-loadable trace_event
// document — valid JSON in the object form, every event carrying a
// name and a known phase, complete events with non-negative ts/dur —
// and returns the number of complete ("X") events. It backs the
// exporter's tests, the CI trace smoke leg, and starmon -check-trace.
func ValidateTrace(data []byte) (complete int, err error) {
	var tr struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return 0, fmt.Errorf("not trace_event JSON: %w", err)
	}
	if tr.TraceEvents == nil {
		return 0, fmt.Errorf("missing traceEvents array")
	}
	for i, e := range tr.TraceEvents {
		if e.Name == nil || *e.Name == "" {
			return 0, fmt.Errorf("traceEvents[%d]: missing name", i)
		}
		if e.Ph == nil || *e.Ph == "" {
			return 0, fmt.Errorf("traceEvents[%d]: missing ph", i)
		}
		if *e.Ph != "X" {
			continue
		}
		if e.TS == nil || *e.TS < 0 {
			return 0, fmt.Errorf("traceEvents[%d]: complete event needs ts >= 0", i)
		}
		if e.Dur == nil || *e.Dur < 0 {
			return 0, fmt.Errorf("traceEvents[%d]: complete event needs dur >= 0", i)
		}
		complete++
	}
	return complete, nil
}
