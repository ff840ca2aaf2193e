package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/slo"
)

// Watch mode: starmon -watch -rules slo.json with either -attach (live
// /metrics polling) or -series (a replayed sampler dump). Rules are
// evaluated each frame; firing/resolved transitions render as they
// happen, and the exit code is the ops verdict CI gates on:
//
//	0  every rule ended the watch without ever firing
//	1  at least one rule fired at some evaluation (sticky)
//	2  target unreachable, or the rules/series input is unusable
//
// Live mode reads exposition sample names (sim_embeds_total, summary
// quantiles in seconds); replay mode reads sampler series names
// (sim.ring_length, histogram .p95_ns stats in nanoseconds). Rules are
// written against the names and units of the source being watched.

const (
	watchOK          = 0
	watchViolated    = 1
	watchUnreachable = 2
)

// watchOpts carries the -watch flags; -attach shares its polling half
// (target, interval, frames, retries, backoff) through poll.
type watchOpts struct {
	target   string // live /metrics host:port or URL ("" = replay)
	series   string // replayed series file ("" = live)
	rules    string
	interval time.Duration
	frames   int
	retries  int
	backoff  time.Duration
}

// runWatch loads the policy, drives the engine from the chosen source,
// and maps the outcome onto the exit-code contract above.
func runWatch(stdout, stderr io.Writer, o watchOpts) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "starmon:", err)
		return watchUnreachable
	}
	if o.rules == "" {
		return fail(fmt.Errorf("-watch needs -rules <policy.json>"))
	}
	if (o.target == "") == (o.series == "") {
		return fail(fmt.Errorf("-watch needs exactly one of -attach (live) or -series (replay)"))
	}
	policy, err := slo.ParseFile(o.rules)
	if err != nil {
		return fail(err)
	}
	eng := slo.NewEngine(policy)
	w := &watcher{out: stdout, eng: eng, state: map[string]slo.State{}}

	if o.series != "" {
		if err := w.replay(o.series); err != nil {
			return fail(err)
		}
	} else if err := w.live(o); err != nil {
		return fail(err)
	}

	if eng.EverFired() {
		fmt.Fprintln(stdout, "watch: SLO violated")
		return watchViolated
	}
	fmt.Fprintln(stdout, "watch: ok")
	return watchOK
}

// watcher renders rule-state transitions as the engine advances.
type watcher struct {
	out   io.Writer
	eng   *slo.Engine
	state map[string]slo.State
}

// step feeds one instant's samples and renders any transitions.
func (w *watcher) step(t int64, samples map[string]float64) {
	w.eng.Observe(t, samples)
	for _, v := range w.eng.Evaluate(t) {
		prev, seen := w.state[v.Rule]
		if seen && prev == v.State {
			continue
		}
		w.state[v.Rule] = v.State
		switch v.State {
		case slo.StateFiring:
			fmt.Fprintf(w.out, "FIRING   %s: %s\n", v.Rule, v.Detail)
		case slo.StateOK:
			if seen && prev == slo.StateFiring {
				fmt.Fprintf(w.out, "resolved %s: %s\n", v.Rule, v.Detail)
			} else {
				fmt.Fprintf(w.out, "ok       %s: %s\n", v.Rule, v.Detail)
			}
		default:
			fmt.Fprintf(w.out, "no data  %s: %s\n", v.Rule, v.Detail)
		}
	}
}

// live feeds each scrape of the target's /metrics into the engine, as
// -attach polls it. Scrape failures burn the retry budget and then
// surface as unreachable.
func (w *watcher) live(o watchOpts) error {
	return poll(o, func(_ int, page *export.Exposition) {
		w.step(obs.Wall.Now().UnixNano(), page.Samples)
	})
}

// replay drives the engine from a recorded series file: either an
// export.SeriesDump JSON document (starring -series-json) or NDJSON
// point lines {"t_unix_ns":..., "samples":{...}}.
func (w *watcher) replay(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	instants, err := parseSeriesPoints(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(instants) == 0 {
		return fmt.Errorf("%s: no samples to replay", path)
	}
	for _, in := range instants {
		w.step(in.t, in.samples)
	}
	return nil
}

// instant is every watched sample at one timestamp.
type instant struct {
	t       int64
	samples map[string]float64
}

// parseSeriesPoints normalizes both replay formats into a time-ordered
// instant list.
func parseSeriesPoints(data []byte) ([]instant, error) {
	byT := map[int64]map[string]float64{}

	var dump export.SeriesDump
	if err := json.Unmarshal(data, &dump); err == nil && len(dump.Series) > 0 {
		for _, s := range dump.Series {
			for _, p := range s.Samples {
				m := byT[p.T]
				if m == nil {
					m = map[string]float64{}
					byT[p.T] = m
				}
				m[s.Name] = float64(p.V)
			}
		}
	} else {
		// NDJSON point lines.
		type pointLine struct {
			T       int64              `json:"t_unix_ns"`
			Samples map[string]float64 `json:"samples"`
		}
		for i, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			var pl pointLine
			if err := json.Unmarshal([]byte(line), &pl); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			if pl.Samples == nil {
				return nil, fmt.Errorf("line %d: no samples object", i+1)
			}
			m := byT[pl.T]
			if m == nil {
				m = map[string]float64{}
				byT[pl.T] = m
			}
			for k, v := range pl.Samples {
				m[k] = v
			}
		}
	}

	ts := make([]int64, 0, len(byT))
	for t := range byT {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := make([]instant, len(ts))
	for i, t := range ts {
		out[i] = instant{t: t, samples: byT[t]}
	}
	return out, nil
}
