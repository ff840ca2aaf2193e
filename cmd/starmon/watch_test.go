package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/export"
)

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSeries writes a -series-json document holding one gauge series
// per name, sampled at the seconds in ts with the values in vs[name].
func writeSeries(t *testing.T, file string, ts []int64, vs map[string][]int64) string {
	t.Helper()
	dump := export.SeriesDump{PeriodNS: 1e9}
	for name, values := range vs {
		s := export.Series{Name: name, Kind: "gauge"}
		for i, v := range values {
			s.Samples = append(s.Samples, export.Sample{T: ts[i] * 1e9, V: v})
		}
		dump.Series = append(dump.Series, s)
	}
	data, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, file, string(data))
}

// ringSeries writes a replayable series: the ring length dips below
// 100 at t=3s and recovers by t=5s.
func ringSeries(t *testing.T) string {
	return writeSeries(t, "series.json", []int64{1, 2, 3, 4, 5, 8}, map[string][]int64{
		"sim.ring_length": {120, 118, 80, 80, 116, 116},
		"sim.failures":    {0, 1, 2, 2, 2, 2},
	})
}

// TestWatchReplayExitCodes pins the -watch exit-code contract on a
// replayed series: a rule that fires mid-run exits 1 even though the
// curve recovers; a rule the series never violates exits 0.
func TestWatchReplayExitCodes(t *testing.T) {
	series := ringSeries(t)

	firing := writeFile(t, "firing.json", `{"rules": [
		{"name": "ring-floor", "kind": "threshold",
		 "metric": "sim.ring_length", "window_s": 2, "min": 100}
	]}`)
	var out, errOut strings.Builder
	code := run([]string{"-watch", "-series", series, "-rules", firing}, &out, &errOut)
	if code != 1 {
		t.Fatalf("firing rule: exit %d, want 1; stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"FIRING   ring-floor", "resolved ring-floor", "watch: SLO violated"} {
		if !strings.Contains(text, want) {
			t.Errorf("watch output missing %q:\n%s", want, text)
		}
	}

	passing := writeFile(t, "passing.json", `{"rules": [
		{"name": "ring-floor", "kind": "threshold",
		 "metric": "sim.ring_length", "window_s": 2, "min": 50},
		{"name": "failure-rate", "kind": "rate",
		 "metric": "sim.failures", "window_s": 4, "max_per_s": 5}
	]}`)
	out.Reset()
	code = run([]string{"-watch", "-series", series, "-rules", passing}, &out, &errOut)
	if code != 0 {
		t.Fatalf("passing rules: exit %d, want 0; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "watch: ok") {
		t.Errorf("watch output missing verdict:\n%s", out.String())
	}
}

// TestWatchReplayLabeledFamily replays per-machine labeled series: a
// bare-family rule must see every machine="m<i>" series, so m1's dip
// fires it even though m0 stays healthy.
func TestWatchReplayLabeledFamily(t *testing.T) {
	series := writeSeries(t, "fleet.json", []int64{1, 2}, map[string][]int64{
		`sim.ring_length{machine="m0"}`: {120, 120},
		`sim.ring_length{machine="m1"}`: {118, 80},
	})
	rules := writeFile(t, "rules.json", `{"rules": [
		{"name": "fleet-floor", "kind": "threshold",
		 "metric": "sim.ring_length", "window_s": 5, "min": 100}
	]}`)
	var out, errOut strings.Builder
	if code := run([]string{"-watch", "-series", series, "-rules", rules}, &out, &errOut); code != 1 {
		t.Fatalf("fleet replay: exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "FIRING   fleet-floor") {
		t.Errorf("fleet watch output missing transition:\n%s", out.String())
	}
}

// TestWatchConfigErrors pins exit 2 for every unusable configuration,
// a series file in any format but the sampler's -series-json included.
func TestWatchConfigErrors(t *testing.T) {
	series := ringSeries(t)
	rules := writeFile(t, "rules.json", `{"rules": [
		{"name": "r", "kind": "threshold", "metric": "m", "window_s": 1, "max": 1}
	]}`)
	cases := map[string][]string{
		"no rules":          {"-watch", "-series", series},
		"missing rule file": {"-watch", "-series", series, "-rules", filepath.Join(t.TempDir(), "nope.json")},
		"invalid policy":    {"-watch", "-series", series, "-rules", writeFile(t, "bad.json", `{"rules": []}`)},
		"no source":         {"-watch", "-rules", rules},
		"two sources":       {"-watch", "-rules", rules, "-series", series, "-attach", "localhost:1"},
		"missing series":    {"-watch", "-rules", rules, "-series", filepath.Join(t.TempDir(), "nope.json")},
		"malformed series":  {"-watch", "-rules", rules, "-series", writeFile(t, "garbage.json", "not json\n")},
		"empty series":      {"-watch", "-rules", rules, "-series", writeFile(t, "empty.json", "")},
		"ndjson series": {"-watch", "-rules", rules, "-series", writeFile(t, "points.ndjson",
			`{"t_unix_ns":1000000000,"samples":{"sim.ring_length":120}}`+"\n"+
				`{"t_unix_ns":2000000000,"samples":{"sim.ring_length":80}}`+"\n")},
		"mode collision": {"-watch", "-rules", rules, "-series", series, "-replay", "x"},
	}
	for label, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2; stderr: %s", label, code, errOut.String())
		}
	}
}

// TestWatchLive drives -watch against a live /metrics endpoint: a
// passing policy exits 0, a violated one exits 1, and an unreachable
// target exits 2 once the retry budget is spent.
func TestWatchLive(t *testing.T) {
	reg := liveRegistry() // t.run.depth gauge = 3
	srv := httptest.NewServer(export.MetricsHandler(reg))
	defer srv.Close()

	pass := writeFile(t, "pass.json", `{"rules": [
		{"name": "depth-cap", "kind": "threshold",
		 "metric": "t_run_depth", "window_s": 60, "max": 10}
	]}`)
	var out, errOut strings.Builder
	code := run([]string{"-watch", "-attach", srv.URL, "-rules", pass, "-frames", "2", "-interval", "1ms"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("live pass: exit %d, want 0; stderr: %s", code, errOut.String())
	}

	fire := writeFile(t, "fire.json", `{"rules": [
		{"name": "depth-cap", "kind": "threshold",
		 "metric": "t_run_depth", "window_s": 60, "max": 2}
	]}`)
	out.Reset()
	code = run([]string{"-watch", "-attach", srv.URL, "-rules", fire, "-frames", "2", "-interval", "1ms"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("live fire: exit %d, want 1; output: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "FIRING   depth-cap") {
		t.Errorf("live watch output missing transition:\n%s", out.String())
	}

	srv.Close()
	errOut.Reset()
	code = run([]string{"-watch", "-attach", srv.URL, "-rules", pass, "-frames", "1", "-retries", "1", "-retry-backoff", "1ms"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("dead target: exit %d, want 2; stderr: %s", code, errOut.String())
	}
}

// TestWatchReplaySeriesDump feeds the engine a hand-written
// -series-json SeriesDump document, with no period or kind fields.
func TestWatchReplaySeriesDump(t *testing.T) {
	dump := export.SeriesDump{Series: []export.Series{{
		Name: "sim.ring_length",
		Samples: []export.Sample{
			{T: 1e9, V: 120}, {T: 2e9, V: 80}, {T: 3e9, V: 120},
		},
	}}}
	var doc strings.Builder
	fmt.Fprintf(&doc, `{"series": [{"name": %q, "samples": [`, dump.Series[0].Name)
	for i, s := range dump.Series[0].Samples {
		if i > 0 {
			doc.WriteString(",")
		}
		fmt.Fprintf(&doc, `{"t_unix_ns": %d, "v": %d}`, s.T, s.V)
	}
	doc.WriteString(`]}]}`)
	series := writeFile(t, "dump.json", doc.String())

	rules := writeFile(t, "rules.json", `{"rules": [
		{"name": "ring-floor", "kind": "threshold",
		 "metric": "sim.ring_length", "window_s": 1, "min": 100}
	]}`)
	var out, errOut strings.Builder
	if code := run([]string{"-watch", "-series", series, "-rules", rules}, &out, &errOut); code != 1 {
		t.Fatalf("dump replay: exit %d, want 1; stderr: %s", code, errOut.String())
	}
}

// TestRunCheckMetricsWantLabel pins the -want-label extension: an
// exposition carrying machine-labeled samples passes, an unlabeled one
// fails the check.
func TestRunCheckMetricsWantLabel(t *testing.T) {
	reg := liveRegistry()
	reg.CounterVec("sim.embeds", "machine").With("machine", "m0").Inc()
	var page strings.Builder
	if err := export.WriteOpenMetrics(&page, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	labeled := writeFile(t, "labeled.txt", page.String())

	var out, errOut strings.Builder
	if code := run([]string{"-check-metrics", labeled, "-want-label", "machine"}, &out, &errOut); code != 0 {
		t.Fatalf("labeled page: exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "labeled machine") {
		t.Errorf("output does not report the label count: %q", out.String())
	}

	page.Reset()
	if err := export.WriteOpenMetrics(&page, liveRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	plain := writeFile(t, "plain.txt", page.String())
	errOut.Reset()
	if code := run([]string{"-check-metrics", plain, "-want-label", "machine"}, &out, &errOut); code != 1 {
		t.Fatalf("unlabeled page: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), `no sample carries label "machine"`) {
		t.Errorf("stderr %q", errOut.String())
	}
}
