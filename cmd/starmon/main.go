// Command starmon is a terminal monitor for the telemetry the other
// commands export. It attaches to a running process started with
// -debug-addr and renders live per-second counter rates, gauge values
// and histogram quantiles from its /metrics endpoint; it replays an
// NDJSON event log (-events-out) into a summary of faults, repair
// outcomes and level counts; and it validates exported artifacts so
// CI can gate on them.
//
// Usage:
//
//	starmon -attach localhost:6060                 # live monitor
//	starmon -attach localhost:6060 -frames 5       # five frames, then exit
//	starmon -replay events.ndjson                  # summarize an event log
//	starmon -check-metrics http://host:6060/metrics
//	starmon -check-metrics metrics.txt             # or a saved scrape
//	starmon -check-trace trace.json                # Perfetto trace_event
//	starmon -check-events events.ndjson            # NDJSON event log
//	starmon -postmortem flight/                    # render a flight bundle
//	starmon -watch -attach localhost:6060 -rules slo.json -frames 10
//	starmon -watch -series series.json -rules slo.json
//
// -attach retries transient scrape failures with bounded exponential
// backoff (-retries, -retry-backoff) instead of dying on the first
// hiccup, so a monitor outlives its target's restarts. -check-events
// validates an NDJSON event log (every line must parse as a record).
// -postmortem loads a flight-recorder bundle (the directory written by
// -flight-dump, or a tar saved from /debug/flight) and reconstructs the
// per-trace timeline: the spans and then the events of each operation,
// all read from the one ring the recorder keeps, so a trace's spans and
// events are retained or evicted together by age.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected, so tests can drive every mode.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("starmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		attach       = fs.String("attach", "", "monitor a live process: host:port or base URL of its -debug-addr server")
		interval     = fs.Duration("interval", time.Second, "polling period for -attach")
		frames       = fs.Int("frames", 0, "stop -attach after this many frames (0 = run until interrupted)")
		retries      = fs.Int("retries", 5, "scrape retries per -attach frame before giving up")
		retryBackoff = fs.Duration("retry-backoff", 500*time.Millisecond, "initial backoff between -attach scrape retries (doubles per retry)")
		replay       = fs.String("replay", "", "summarize an NDJSON event log file")
		checkMetrics = fs.String("check-metrics", "", "validate an OpenMetrics exposition (URL or file) and exit")
		checkTrace   = fs.String("check-trace", "", "validate a Chrome trace_event JSON file and exit")
		checkEvents  = fs.String("check-events", "", "validate an NDJSON event log file and exit")
		postmortem   = fs.String("postmortem", "", "render a flight-recorder bundle (directory or tar) as per-trace timelines")
		watch        = fs.Bool("watch", false, "evaluate -rules against -attach (live) or -series (replay); exit 0 ok, 1 SLO violated, 2 unreachable")
		rules        = fs.String("rules", "", "with -watch: SLO policy file (JSON; see internal/obs/slo)")
		series       = fs.String("series", "", "with -watch: replay a recorded series file instead of scraping")
		wantLabel    = fs.String("want-label", "", "with -check-metrics: additionally require at least one sample carrying this label key")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A negative count would poll zero frames and pass every check.
	if *frames < 0 {
		fmt.Fprintf(stderr, "starmon: -frames %d: want 0 (run until interrupted) or more\n", *frames)
		return 2
	}
	if *retries < 0 {
		fmt.Fprintf(stderr, "starmon: -retries %d: want 0 or more\n", *retries)
		return 2
	}
	if *interval <= 0 {
		*interval = time.Second
	}
	o := watchOpts{
		target:   *attach,
		series:   *series,
		rules:    *rules,
		interval: *interval,
		frames:   *frames,
		retries:  *retries,
		backoff:  *retryBackoff,
	}

	if *watch {
		for _, m := range []string{*replay, *checkMetrics, *checkTrace, *checkEvents, *postmortem} {
			if m != "" {
				fmt.Fprintln(stderr, "starmon: -watch does not combine with other modes")
				return 2
			}
		}
		return runWatch(stdout, stderr, o)
	}

	modes := 0
	for _, m := range []string{*attach, *replay, *checkMetrics, *checkTrace, *checkEvents, *postmortem} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(stderr, "starmon: need exactly one of -attach, -replay, -check-metrics, -check-trace, -check-events, -postmortem, -watch")
		fs.Usage()
		return 2
	}

	var err error
	switch {
	case *checkMetrics != "":
		err = runCheckMetrics(stdout, *checkMetrics, *wantLabel)
	case *checkTrace != "":
		err = runCheckTrace(stdout, *checkTrace)
	case *checkEvents != "":
		err = runCheckEvents(stdout, *checkEvents)
	case *postmortem != "":
		err = runPostmortem(stdout, *postmortem)
	case *replay != "":
		err = runReplay(stdout, *replay)
	default:
		err = runAttach(stdout, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "starmon:", err)
		return 1
	}
	return 0
}

// fetch reads an artifact from a URL or a local file.
func fetch(src string) ([]byte, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}
	return os.ReadFile(src)
}

func runCheckMetrics(w io.Writer, src, wantLabel string) error {
	data, err := fetch(src)
	if err != nil {
		return err
	}
	page, err := export.ParseOpenMetrics(data)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	labeled := 0
	if wantLabel != "" {
		needle := wantLabel + `="`
		for name := range page.Samples {
			if i := strings.IndexByte(name, '{'); i >= 0 && strings.Contains(name[i:], needle) {
				labeled++
			}
		}
		if labeled == 0 {
			return fmt.Errorf("%s: no sample carries label %q", src, wantLabel)
		}
	}
	fmt.Fprintf(w, "openmetrics ok: %d metric families, %d exemplars", page.Families, page.Exemplars)
	if wantLabel != "" {
		fmt.Fprintf(w, ", %d samples labeled %s", labeled, wantLabel)
	}
	fmt.Fprintln(w)
	return nil
}

// runCheckEvents validates an NDJSON event log: every line must parse
// as an obs.Record. It reports how many records carry a trace id and
// across how many traces.
func runCheckEvents(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadLog(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	traced := 0
	traces := map[obs.TraceID]bool{}
	for _, r := range recs {
		if r.Trace != 0 {
			traced++
			traces[r.Trace] = true
		}
	}
	fmt.Fprintf(w, "events ok: %d records, %d traced across %d traces\n",
		len(recs), traced, len(traces))
	return nil
}

func runCheckTrace(w io.Writer, src string) error {
	data, err := fetch(src)
	if err != nil {
		return err
	}
	complete, err := export.ValidateTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	if complete == 0 {
		return fmt.Errorf("%s: trace has no complete events", src)
	}
	fmt.Fprintf(w, "trace ok: %d complete events\n", complete)
	return nil
}

// runReplay folds an NDJSON event log into a one-screen summary:
// record and level counts, per-event tallies, and the repair-outcome
// breakdown the sim and core event streams carry.
func runReplay(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadLog(f)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Fprintln(w, "0 records")
		return nil
	}

	levels := map[string]int{}
	events := map[string]int{}
	outcomes := map[string]int{}
	for _, r := range recs {
		levels[r.Level]++
		events[r.Event]++
		if out, ok := r.Fields["outcome"].(string); ok {
			outcomes[r.Event+":"+out]++
		}
	}
	span := time.Duration(recs[len(recs)-1].T - recs[0].T)
	fmt.Fprintf(w, "%d records spanning %v\n", len(recs), span)
	fmt.Fprintf(w, "levels: %s\n", joinCounts(levels))
	fmt.Fprintln(w, "events:")
	for _, name := range sortedKeys(events) {
		fmt.Fprintf(w, "  %-24s %d\n", name, events[name])
	}
	if len(outcomes) > 0 {
		fmt.Fprintln(w, "repair outcomes:")
		for _, name := range sortedKeys(outcomes) {
			fmt.Fprintf(w, "  %-24s %d\n", name, outcomes[name])
		}
	}
	return nil
}

// runPostmortem loads a flight-recorder bundle and reconstructs what
// the process was doing when it dumped: a validation summary of the
// three artifacts, then one timeline per trace — the trace's spans
// (name and duration, from the Perfetto artifact) followed by its
// event-log records in time order, offset from the first retained
// record. Untraced records are summarized at the end.
func runPostmortem(w io.Writer, path string) error {
	b, err := export.ReadFlightBundle(path)
	if err != nil {
		return err
	}
	complete, err := export.ValidateTrace(b.Trace)
	if err != nil {
		return fmt.Errorf("%s: trace: %w", path, err)
	}
	page, err := export.ParseOpenMetrics(b.Metrics)
	if err != nil {
		return fmt.Errorf("%s: metrics: %w", path, err)
	}
	fmt.Fprintf(w, "flight bundle %s: %d events, %d spans, %d metric families, %d exemplars\n",
		path, len(b.Events), complete, page.Families, page.Exemplars)

	// Spans per trace, in the exporter's time order.
	var tr export.Trace
	if err := json.Unmarshal(b.Trace, &tr); err != nil {
		return fmt.Errorf("%s: trace: %w", path, err)
	}
	type spanRow struct {
		name string
		dur  time.Duration
	}
	spansByTrace := map[string][]spanRow{}
	var order []string
	seen := map[string]bool{}
	note := func(id string) {
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
	}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id := ""
		if e.Args != nil {
			id = e.Args["trace_id"]
		}
		if id == "" {
			continue
		}
		note(id)
		spansByTrace[id] = append(spansByTrace[id],
			spanRow{e.Name, time.Duration(e.Dur * float64(time.Microsecond))})
	}

	// Records per trace, plus the untraced remainder.
	recsByTrace := map[string][]obs.Record{}
	var untraced []obs.Record
	var t0 int64
	for i, r := range b.Events {
		if i == 0 || r.T < t0 {
			t0 = r.T
		}
	}
	for _, r := range b.Events {
		if r.Trace == 0 {
			untraced = append(untraced, r)
			continue
		}
		id := r.Trace.String()
		note(id)
		recsByTrace[id] = append(recsByTrace[id], r)
	}

	for _, id := range order {
		fmt.Fprintf(w, "trace %s:\n", id)
		for _, s := range spansByTrace[id] {
			fmt.Fprintf(w, "  span  %-28s %v\n", s.name, s.dur)
		}
		for _, r := range recsByTrace[id] {
			fmt.Fprintf(w, "  event %s %-7s %s%s\n",
				formatOffset(r.T-t0), r.Level, r.Event, formatFields(r.Fields))
		}
	}
	if len(untraced) > 0 {
		fmt.Fprintf(w, "untraced: %d records\n", len(untraced))
	}
	return nil
}

// formatOffset renders a record's time as an offset from the first
// retained record, fixed-width so timeline columns line up.
func formatOffset(ns int64) string {
	return fmt.Sprintf("%-10s", "+"+time.Duration(ns).Round(time.Microsecond).String())
}

// formatFields renders a record's fields sorted by key, so output is
// deterministic across runs.
func formatFields(fields map[string]interface{}) string {
	if len(fields) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, k := range sortedKeys(fields) {
		fmt.Fprintf(&sb, " %s=%v", k, fields[k])
	}
	return sb.String()
}

// runAttach renders one frame per scrape: counter rates against the
// previous frame, gauge values, and summary quantiles.
func runAttach(w io.Writer, o watchOpts) error {
	var prev map[string]float64
	return poll(o, func(frame int, page *export.Exposition) {
		renderFrame(w, frame, o.interval, page.Samples, prev, page.Types, page.Traces)
		prev = page.Samples
	})
}

// poll scrapes the target's /metrics once per interval, o.frames times
// (0 = until interrupted), and hands each page, validated and read in
// one pass, to fn. Scrape failures are retried with bounded
// exponential backoff — a monitor should outlive a restarting target —
// and only abort the loop once the retry budget is spent.
func poll(o watchOpts, fn func(frame int, page *export.Exposition)) error {
	target := o.target
	if !strings.HasPrefix(target, "http://") && !strings.HasPrefix(target, "https://") {
		target = "http://" + target
	}
	url := strings.TrimSuffix(target, "/") + "/metrics"
	for frame := 1; o.frames == 0 || frame <= o.frames; frame++ {
		data, err := fetchRetry(url, o.retries, o.backoff)
		if err != nil {
			return err
		}
		page, err := export.ParseOpenMetrics(data)
		if err != nil {
			return fmt.Errorf("%s: %w", url, err)
		}
		fn(frame, page)
		if o.frames != 0 && frame == o.frames {
			break
		}
		time.Sleep(o.interval)
	}
	return nil
}

// fetchRetry fetches with up to retries retries after the first
// attempt, doubling the backoff between attempts (capped at 8s).
// Transient failures — connection refused during a restart, a non-200
// from a proxy — are the expected case; persistent ones surface with
// the attempt count attached.
func fetchRetry(src string, retries int, backoff time.Duration) ([]byte, error) {
	if backoff <= 0 {
		backoff = 500 * time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		var data []byte
		data, err = fetch(src)
		if err == nil {
			return data, nil
		}
		if attempt >= retries {
			return nil, fmt.Errorf("after %d attempts: %w", attempt+1, err)
		}
		time.Sleep(backoff)
		if backoff < 8*time.Second {
			backoff *= 2
		}
	}
}

// renderFrame prints one monitor frame. Counter families get a
// per-second rate once a previous frame exists; everything else shows
// its current value, summary quantiles with the trace id of their
// slowest-observation exemplar when the exposition carries one. Two
// families render as their own sections: the prof.RuntimeSampler
// gauges (runtime_*) with human units, and the starserve RED families
// (serve_*) — per-route request/error rates and latency quantiles —
// so service health reads at a glance, separate from the algorithm
// metrics.
func renderFrame(w io.Writer, frame int, interval time.Duration, cur, prev map[string]float64, kinds, exemplars map[string]string) {
	fmt.Fprintf(w, "frame %d (%d samples)\n", frame, len(cur))
	var serveNames, runtimeNames []string
	for _, name := range sortedKeys(cur) {
		switch {
		case strings.HasPrefix(name, "runtime_"):
			runtimeNames = append(runtimeNames, name)
		case strings.HasPrefix(name, "serve_"):
			serveNames = append(serveNames, name)
		default:
			renderSample(w, "  ", 44, name, interval, cur, prev, kinds, exemplars)
		}
	}
	if len(serveNames) > 0 {
		fmt.Fprintln(w, "  serve:")
		for _, name := range serveNames {
			renderSample(w, "    ", 54, name, interval, cur, prev, kinds, exemplars)
		}
	}
	if len(runtimeNames) > 0 {
		fmt.Fprintln(w, "  runtime:")
		for _, name := range runtimeNames {
			fmt.Fprintf(w, "    %-42s %12s\n", name, formatRuntimeValue(name, cur[name]))
		}
	}
}

// renderSample prints one sample line: counters with their value and
// (after the first frame) a per-second rate, summary quantiles with
// their exemplar trace id, everything else as a plain value. width
// sizes the name column (labeled serve_* names run long).
func renderSample(w io.Writer, indent string, width int, name string, interval time.Duration, cur, prev map[string]float64, kinds, exemplars map[string]string) {
	family := name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		family = name[:i]
	}
	kind := kinds[strings.TrimSuffix(family, "_total")]
	if kind == "" {
		kind = kinds[family]
	}
	switch kind {
	case "counter":
		line := fmt.Sprintf("%s%-*s %12.0f", indent, width, name, cur[name])
		if prev != nil {
			rate := (cur[name] - prev[name]) / interval.Seconds()
			line += fmt.Sprintf("  %+.1f/s", rate)
		}
		fmt.Fprintln(w, line)
	case "summary":
		line := fmt.Sprintf("%s%-*s %12g", indent, width, name, cur[name])
		if tr := exemplars[name]; tr != "" {
			line += "  trace=" + tr
		}
		fmt.Fprintln(w, line)
	default:
		fmt.Fprintf(w, "%s%-*s %12.0f\n", indent, width, name, cur[name])
	}
}

// formatRuntimeValue picks human units from the gauge name: byte
// gauges render as KiB/MiB/GiB, *_ns gauges as durations, and counts
// stay integers.
func formatRuntimeValue(name string, v float64) string {
	switch {
	case strings.Contains(name, "bytes"):
		return formatBytes(v)
	case strings.HasSuffix(name, "_ns"):
		return time.Duration(v).Round(time.Microsecond).String()
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func formatBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func joinCounts(m map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
