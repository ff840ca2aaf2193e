// Package slo turns telemetry curves into pass/fail ops verdicts. A
// Policy is a small declarative rule file (JSON) over metric series —
// quantile/value thresholds and counter rates evaluated over a sliding
// window, plus multi-window burn-rate alerts over an error budget —
// and an Engine evaluates it against any stream of timestamped
// samples: live /metrics scrapes (starmon -watch -attach), a replayed
// export.SeriesDump, or hand-fed points in tests.
//
// Rules address metrics by the sample names the feeder provides:
// exposition names for live scrapes (serve_good_total{route="embed"},
// core_phase_route{quantile="0.95"}), series names for replayed dumps
// (serve.latency.p95_ns{route="embed"}). Values are likewise in the
// feeder's units — seconds on /metrics summary quantiles, nanoseconds
// in sampler series — so thresholds are written for the source being
// watched. A rule metric with no label clause also matches every
// labeled series of that family (name{...}): thresholds must hold on
// each label set, and rates and burns sum the per-series deltas, so one
// rule on serve_requests_total covers every route.
//
// Like the rest of the obs stack it is stdlib-only and deterministic:
// the Engine has no clock of its own, every evaluation happens at a
// caller-supplied instant.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Rule is one SLO clause. Kind selects which fields apply:
//
//   - "threshold": over the trailing Window, every sample of Metric
//     must stay <= Max (if set) and >= Min (if set).
//   - "rate": the per-second increase of the (counter) Metric over the
//     trailing Window must stay <= MaxPerS (if set) and >= MinPerS (if
//     set).
//   - "burn": classic multi-window burn-rate. GoodMetric/TotalMetric
//     are cumulative counters; the bad ratio 1-Δgood/Δtotal, divided
//     by the error budget 1-Objective, is the burn rate. The rule
//     fires only when burn exceeds BurnFactor over BOTH the short and
//     the long window — the long window filters blips, the short one
//     proves the burn is still happening.
type Rule struct {
	Name string `json:"name"`
	Kind string `json:"kind"`

	// threshold + rate
	Metric  string   `json:"metric,omitempty"`
	WindowS float64  `json:"window_s,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Min     *float64 `json:"min,omitempty"`
	MaxPerS *float64 `json:"max_per_s,omitempty"`
	MinPerS *float64 `json:"min_per_s,omitempty"`

	// burn
	GoodMetric   string  `json:"good_metric,omitempty"`
	TotalMetric  string  `json:"total_metric,omitempty"`
	Objective    float64 `json:"objective,omitempty"`
	BurnFactor   float64 `json:"burn_factor,omitempty"`
	ShortWindowS float64 `json:"short_window_s,omitempty"`
	LongWindowS  float64 `json:"long_window_s,omitempty"`
}

// Policy is a parsed rule file.
type Policy struct {
	Rules []Rule `json:"rules"`
}

// Parse decodes and validates a policy document.
func Parse(data []byte) (Policy, error) {
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return Policy{}, fmt.Errorf("slo: parse policy: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// ParseFile reads and parses a policy file.
func ParseFile(path string) (Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Policy{}, err
	}
	return Parse(data)
}

// Validate checks the policy's structural invariants: at least one
// rule, unique nonempty names, known kinds, and each kind's required
// fields.
func (p Policy) Validate() error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("slo: policy has no rules")
	}
	seen := map[string]bool{}
	for i, r := range p.Rules {
		where := fmt.Sprintf("slo: rule %d (%q)", i, r.Name)
		if r.Name == "" {
			return fmt.Errorf("slo: rule %d: missing name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("%s: duplicate name", where)
		}
		seen[r.Name] = true
		switch r.Kind {
		case "threshold":
			if r.Metric == "" {
				return fmt.Errorf("%s: threshold needs metric", where)
			}
			if r.WindowS <= 0 {
				return fmt.Errorf("%s: threshold needs window_s > 0", where)
			}
			if r.Max == nil && r.Min == nil {
				return fmt.Errorf("%s: threshold needs max and/or min", where)
			}
		case "rate":
			if r.Metric == "" {
				return fmt.Errorf("%s: rate needs metric", where)
			}
			if r.WindowS <= 0 {
				return fmt.Errorf("%s: rate needs window_s > 0", where)
			}
			if r.MaxPerS == nil && r.MinPerS == nil {
				return fmt.Errorf("%s: rate needs max_per_s and/or min_per_s", where)
			}
		case "burn":
			if r.GoodMetric == "" || r.TotalMetric == "" {
				return fmt.Errorf("%s: burn needs good_metric and total_metric", where)
			}
			if r.Objective <= 0 || r.Objective >= 1 {
				return fmt.Errorf("%s: burn needs 0 < objective < 1", where)
			}
			if r.BurnFactor <= 0 {
				return fmt.Errorf("%s: burn needs burn_factor > 0", where)
			}
			if r.ShortWindowS <= 0 || r.LongWindowS < r.ShortWindowS {
				return fmt.Errorf("%s: burn needs 0 < short_window_s <= long_window_s", where)
			}
		default:
			return fmt.Errorf("%s: unknown kind %q (want threshold|rate|burn)", where, r.Kind)
		}
	}
	return nil
}

// metrics returns the metric names a rule reads.
func (r Rule) metrics() []string {
	if r.Kind == "burn" {
		return []string{r.GoodMetric, r.TotalMetric}
	}
	return []string{r.Metric}
}

// windowNS returns the rule's longest lookback in nanoseconds.
func (r Rule) windowNS() int64 {
	w := r.WindowS
	if r.Kind == "burn" {
		w = r.LongWindowS
	}
	return int64(w * float64(time.Second))
}

// State is a rule's evaluation outcome.
type State int

const (
	// StateNoData: the window holds too few samples to judge.
	StateNoData State = iota
	// StateOK: the rule's condition holds.
	StateOK
	// StateFiring: the rule's condition is violated.
	StateFiring
)

// String implements fmt.Stringer ("no_data", "ok", "firing").
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateFiring:
		return "firing"
	}
	return "no_data"
}

// Verdict is one rule's state at one evaluation instant.
type Verdict struct {
	Rule   string
	State  State
	Value  float64 // the measured quantity the rule compared
	Detail string  // human-readable explanation
}

// point is one observed sample of one metric.
type point struct {
	t int64
	v float64
}

// Engine evaluates one Policy against a stream of samples. Feed it
// with Observe (all metrics of one instant at once), then call
// Evaluate at any instant for the per-rule verdicts. Firing state is
// sticky through EverFired, which is what the starmon -watch exit code
// reports: an SLO violated mid-run stays a failure even if the curve
// recovers before the last frame.
type Engine struct {
	policy  Policy
	watched map[string]bool    // metrics any rule reads
	hist    map[string][]point // per-metric window history, pruned
	maxWin  int64              // longest rule lookback
	firing  map[string]bool    // rule name → currently firing
	ever    map[string]bool    // rule name → fired at least once
}

// NewEngine builds an engine over a validated policy.
func NewEngine(p Policy) *Engine {
	e := &Engine{
		policy:  p,
		watched: map[string]bool{},
		hist:    map[string][]point{},
		firing:  map[string]bool{},
		ever:    map[string]bool{},
	}
	for _, r := range p.Rules {
		for _, m := range r.metrics() {
			e.watched[m] = true
		}
		if w := r.windowNS(); w > e.maxWin {
			e.maxWin = w
		}
	}
	return e
}

// watches reports whether some rule reads a sample name — exactly, or
// as one labeled series of a bare-family rule metric.
func (e *Engine) watches(name string) bool {
	if e.watched[name] {
		return true
	}
	if i := strings.IndexByte(name, '{'); i > 0 {
		return e.watched[name[:i]]
	}
	return false
}

// Observe records the samples of one instant. Only metrics some rule
// reads are retained; history older than the longest rule window is
// pruned (keeping one point beyond the horizon so window-edge deltas
// still resolve).
func (e *Engine) Observe(tUnixNS int64, samples map[string]float64) {
	for name, v := range samples {
		if !e.watches(name) {
			continue
		}
		h := append(e.hist[name], point{t: tUnixNS, v: v})
		horizon := tUnixNS - e.maxWin
		cut := 0
		for cut < len(h)-1 && h[cut+1].t <= horizon {
			cut++
		}
		e.hist[name] = h[cut:]
	}
}

// seriesFor resolves a rule metric to the history series it covers:
// itself, plus — when it names a bare family — every labeled series
// name{...} observed so far. A rule that pins a label clause matches
// only that exact series.
func (e *Engine) seriesFor(metric string) []string {
	names := []string{metric}
	if strings.IndexByte(metric, '{') >= 0 {
		return names
	}
	prefix := metric + "{"
	for name := range e.hist {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// window returns the points of metric within [now-winNS, now], plus
// the last point before the window (ok for delta baselines), if any.
func (e *Engine) window(metric string, now, winNS int64) (in []point, before *point) {
	h := e.hist[metric]
	lo := now - winNS
	for i := range h {
		if h[i].t < lo {
			before = &h[i]
			continue
		}
		if h[i].t <= now {
			in = append(in, h[i])
		}
	}
	return in, before
}

// Evaluate judges every rule at the given instant, in policy order,
// and updates the engine's firing/ever state.
func (e *Engine) Evaluate(nowUnixNS int64) []Verdict {
	out := make([]Verdict, 0, len(e.policy.Rules))
	for _, r := range e.policy.Rules {
		var v Verdict
		switch r.Kind {
		case "threshold":
			v = e.evalThreshold(r, nowUnixNS)
		case "rate":
			v = e.evalRate(r, nowUnixNS)
		default:
			v = e.evalBurn(r, nowUnixNS)
		}
		v.Rule = r.Name
		e.firing[r.Name] = v.State == StateFiring
		if v.State == StateFiring {
			e.ever[r.Name] = true
		}
		out = append(out, v)
	}
	return out
}

func (e *Engine) evalThreshold(r Rule, now int64) Verdict {
	// Bounds must hold on every series the metric covers, so the
	// extrema run over the union of all matching label sets.
	var in []point
	for _, s := range e.seriesFor(r.Metric) {
		w, _ := e.window(s, now, r.windowNS())
		in = append(in, w...)
	}
	if len(in) == 0 {
		return Verdict{State: StateNoData, Detail: fmt.Sprintf("%s: no samples in window", r.Metric)}
	}
	worstHi, worstLo := in[0].v, in[0].v
	for _, p := range in[1:] {
		if p.v > worstHi {
			worstHi = p.v
		}
		if p.v < worstLo {
			worstLo = p.v
		}
	}
	if r.Max != nil && worstHi > *r.Max {
		return Verdict{State: StateFiring, Value: worstHi,
			Detail: fmt.Sprintf("%s max %g > limit %g over %gs", r.Metric, worstHi, *r.Max, r.WindowS)}
	}
	if r.Min != nil && worstLo < *r.Min {
		return Verdict{State: StateFiring, Value: worstLo,
			Detail: fmt.Sprintf("%s min %g < floor %g over %gs", r.Metric, worstLo, *r.Min, r.WindowS)}
	}
	val := worstHi
	if r.Max == nil {
		val = worstLo
	}
	return Verdict{State: StateOK, Value: val,
		Detail: fmt.Sprintf("%s within bounds over %gs", r.Metric, r.WindowS)}
}

// delta returns the increase of a cumulative metric over the window
// ending at now, and the time span it covers; ok is false when the
// window cannot produce a delta (fewer than two usable points). A
// bare-family metric sums the per-series deltas over the widest
// per-series span.
func (e *Engine) delta(metric string, now, winNS int64) (d float64, spanNS int64, ok bool) {
	for _, s := range e.seriesFor(metric) {
		sd, ss, sok := e.seriesDelta(s, now, winNS)
		if !sok {
			continue
		}
		d += sd
		if ss > spanNS {
			spanNS = ss
		}
		ok = true
	}
	return d, spanNS, ok
}

// seriesDelta computes one series' increase over the window.
func (e *Engine) seriesDelta(metric string, now, winNS int64) (d float64, spanNS int64, ok bool) {
	in, before := e.window(metric, now, winNS)
	if before != nil {
		in = append([]point{*before}, in...)
	}
	if len(in) < 2 {
		return 0, 0, false
	}
	first, last := in[0], in[len(in)-1]
	if last.t <= first.t {
		return 0, 0, false
	}
	return last.v - first.v, last.t - first.t, true
}

func (e *Engine) evalRate(r Rule, now int64) Verdict {
	d, span, ok := e.delta(r.Metric, now, r.windowNS())
	if !ok {
		return Verdict{State: StateNoData, Detail: fmt.Sprintf("%s: not enough samples for a rate", r.Metric)}
	}
	rate := d / (float64(span) / float64(time.Second))
	if r.MaxPerS != nil && rate > *r.MaxPerS {
		return Verdict{State: StateFiring, Value: rate,
			Detail: fmt.Sprintf("%s rate %.3g/s > limit %g/s over %gs", r.Metric, rate, *r.MaxPerS, r.WindowS)}
	}
	if r.MinPerS != nil && rate < *r.MinPerS {
		return Verdict{State: StateFiring, Value: rate,
			Detail: fmt.Sprintf("%s rate %.3g/s < floor %g/s over %gs", r.Metric, rate, *r.MinPerS, r.WindowS)}
	}
	return Verdict{State: StateOK, Value: rate,
		Detail: fmt.Sprintf("%s rate %.3g/s within bounds over %gs", r.Metric, rate, r.WindowS)}
}

// burnOver computes the burn rate over one window: the bad fraction of
// Δtotal, divided by the error budget.
func (e *Engine) burnOver(r Rule, now, winNS int64) (burn float64, ok bool) {
	dGood, _, okG := e.delta(r.GoodMetric, now, winNS)
	dTotal, _, okT := e.delta(r.TotalMetric, now, winNS)
	if !okG || !okT || dTotal <= 0 {
		return 0, false
	}
	bad := 1 - dGood/dTotal
	if bad < 0 {
		bad = 0
	}
	return bad / (1 - r.Objective), true
}

func (e *Engine) evalBurn(r Rule, now int64) Verdict {
	short := int64(r.ShortWindowS * float64(time.Second))
	long := int64(r.LongWindowS * float64(time.Second))
	bShort, okS := e.burnOver(r, now, short)
	bLong, okL := e.burnOver(r, now, long)
	if !okS || !okL {
		return Verdict{State: StateNoData,
			Detail: fmt.Sprintf("%s/%s: not enough samples for burn windows", r.GoodMetric, r.TotalMetric)}
	}
	if bShort > r.BurnFactor && bLong > r.BurnFactor {
		return Verdict{State: StateFiring, Value: bLong,
			Detail: fmt.Sprintf("burn %.2fx (short %.2fx) > %gx budget of %g objective",
				bLong, bShort, r.BurnFactor, r.Objective)}
	}
	return Verdict{State: StateOK, Value: bLong,
		Detail: fmt.Sprintf("burn %.2fx (short %.2fx) within %gx", bLong, bShort, r.BurnFactor)}
}

// Firing returns the names of currently firing rules, sorted.
func (e *Engine) Firing() []string {
	var out []string
	for name, f := range e.firing {
		if f {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// EverFired reports whether any rule fired at any evaluation — the
// sticky verdict behind starmon -watch's exit code.
func (e *Engine) EverFired() bool {
	for _, f := range e.ever {
		if f {
			return true
		}
	}
	return false
}
