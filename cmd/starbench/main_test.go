package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specJSON is a two-workload BENCHMARK.json with one lower-better and
// one higher-better end-to-end metric.
const specJSON = `{
  "command": ["sh", "fakebench.sh"],
  "workloads": [{"name": "w1", "why": "-"}, {"name": "w2", "why": "-"}],
  "end_to_end": [
    {"name": "mean_rel", "unit": "x", "better": "lower", "bound": 0.15},
    {"name": "goodput", "unit": "ratio", "better": "higher", "bound": 0.05}
  ]
}`

// runs returns one correct result line per workload and seed, parsed
// the way the gate parses perfbench's: seed i carries mean[i] and
// goodput[i] on both workloads.
func runs(t *testing.T, mean, goodput [5]float64) []result {
	t.Helper()
	var rs []result
	for _, wl := range []string{"w1", "w2"} {
		for i, seed := range seeds {
			line := fmt.Sprintf(`{"workload":%q,"seed":%d,"seconds":%d,"correct":true,"attempted":10,"failed":0,`+
				`"metrics":{"mean_rel":{"value":%g,"unit":"x"},"goodput":{"value":%g,"unit":"ratio"}}}`,
				wl, seed, seconds, mean[i], goodput[i])
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
	}
	return rs
}

// with applies f to rs[i] and returns rs.
func with(rs []result, i int, f func(*result)) []result {
	f(&rs[i])
	return rs
}

func TestGate(t *testing.T) {
	var spec benchmark
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	steady := func() []result { return runs(t, [5]float64{10, 10, 10, 10, 10}, [5]float64{1, 1, 1, 1, 1}) }
	for _, c := range []struct {
		name        string
		base, fresh []result
		want        string // a substring of the one problem; "" passes
	}{
		{"within bound", steady(), runs(t, [5]float64{11.4, 10.2, 11.1, 10.6, 11.3}, [5]float64{0.97, 1, 0.96, 0.98, 1}), ""},
		{"lower-better worse past bound", steady(), runs(t, [5]float64{11.6, 11.8, 11.4, 11.7, 11.2}, [5]float64{1, 1, 1, 1, 1}),
			"w1 mean_rel REGRESSED; split it by layer with sh fakebench.sh --workload w1 --seed 1 --seconds 30 --trace 1"},
		{"goodput falls past bound", steady(), runs(t, [5]float64{10, 10, 10, 10, 10}, [5]float64{0.94, 1, 0.9, 0.93, 1}), "w1 goodput REGRESSED"},
		{"one bad seed outvoted", steady(), runs(t, [5]float64{10.1, 30, 9.9, 10, 10.2}, [5]float64{1, 0.2, 1, 1, 1}), ""},
		{"two bad seeds outvoted", steady(), runs(t, [5]float64{10.1, 30, 9.9, 25, 10}, [5]float64{1, 0.2, 1, 0.5, 1}), ""},
		{"incorrect baseline run", with(steady(), 1, func(r *result) { r.Correct = false }), steady(),
			"baseline w1 seed 2: --seconds 10 (the gate's: 10), correct false"},
		{"failed fresh operation", steady(), with(steady(), 6, func(r *result) { r.Failed = 2 }),
			"fresh w2 seed 2: --seconds 10 (the gate's: 10), correct true, 2 of 10 operations failed"},
		{"missing workload", steady()[5:], steady(), "w1 mean_rel: 0 baseline and 5 fresh values"},
		{"missing metric", with(steady(), 5, func(r *result) { delete(r.Metrics, "goodput") }), steady(),
			"w2 goodput: 4 baseline and 5 fresh values"},
		{"seconds mismatch", with(steady(), 0, func(r *result) { r.Seconds = 30 }), steady(),
			"baseline w1 seed 1: --seconds 30 (the gate's: 10)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			problems := gate(&out, spec, c.base, c.fresh)
			switch {
			case c.want == "" && len(problems) > 0:
				t.Errorf("want a pass, got %q\n%s", problems, out.String())
			case c.want != "" && (len(problems) == 0 || !strings.Contains(problems[0], c.want)):
				t.Errorf("want the first problem to contain %q, got %q\n%s", c.want, problems, out.String())
			case strings.Contains(c.want, "REGRESSED") != strings.Contains(out.String(), "REGRESSED"):
				t.Errorf("table and problems disagree on a regression:\n%s", out.String())
			}
		})
	}
}

// writeBench makes root a repository whose benchmark command prints a
// result line with mean_rel = value and exits with code exit.
func writeBench(t *testing.T, root, value string, exit int) {
	t.Helper()
	script := `[ "$5 $6 $7 $8" = "--seconds 10 --trace 0" ] || exit 2
echo "a line before the result"
echo '{"correct":true,"attempted":10,"failed":0,"metrics":{"mean_rel":{"value":` + value +
		`,"unit":"x"},"goodput":{"value":1,"unit":"ratio"}}}'
exit ` + fmt.Sprint(exit) + "\n"
	for name, content := range map[string]string{"BENCHMARK.json": specJSON, "fakebench.sh": script} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// newRepo returns a repository root with a scripts directory and a
// benchmark command that prints mean_rel = 10.
func newRepo(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "scripts"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeBench(t, root, "10", 0)
	return root
}

// TestUsageErrors: bad flags, stray arguments and unreadable inputs
// exit 2 before anything is measured.
func TestUsageErrors(t *testing.T) {
	root := newRepo(t)
	for _, c := range []struct {
		name     string
		args     []string
		baseline string // written to the baseline file unless empty
		want     string
	}{
		{"removed flag", []string{"-threshold", "0.3"}, "", "flag provided but not defined: -threshold"},
		{"stray argument", []string{"record.json"}, "", "usage: starbench [-write]"},
		{"no baseline", nil, "", "perf-baseline.ndjson: no such file"},
		{"malformed baseline", nil, "{\"workload\": \"w1\", \"seed\": 1}\nnot json\n", "invalid character"},
	} {
		if c.baseline != "" {
			if err := os.WriteFile(filepath.Join(root, baselineFile), []byte(c.baseline), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out, errOut strings.Builder
		if code := run(c.args, root, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), c.want) {
			t.Errorf("%s: exit %d, want 2 and %q\n%s", c.name, code, c.want, errOut.String())
		}
	}
	if err := os.Remove(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(nil, root, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "BENCHMARK.json") {
		t.Errorf("no BENCHMARK.json: exit %d, want 2\n%s", code, errOut.String())
	}
}

// TestRunWriteThenGate writes a baseline with -write, then gates a
// second measurement against it: unchanged it passes, slowed it fails,
// and a run that exits non-zero fails.
func TestRunWriteThenGate(t *testing.T) {
	root := newRepo(t)
	var out, errOut strings.Builder
	if code := run([]string{"-write"}, root, &out, &errOut); code != 0 {
		t.Fatalf("-write: exit %d\n%s", code, errOut.String())
	}
	base, err := os.ReadFile(filepath.Join(root, baselineFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(base)), "\n")
	if len(lines) != 10 || !strings.HasPrefix(lines[9], `{"workload":"w2","seed":5,"seconds":10,"correct":true,`) {
		t.Fatalf("baseline has %d lines, want 10 tagged ones:\n%s", len(lines), base)
	}

	for _, c := range []struct {
		value string
		exit  int
		want  int
	}{
		{"10", 0, 0},
		{"12", 0, 1},
		{"10", 1, 1},
	} {
		writeBench(t, root, c.value, c.exit)
		out.Reset()
		errOut.Reset()
		if code := run(nil, root, &out, &errOut); code != c.want {
			t.Errorf("mean_rel %s, command exit %d: gate exit %d, want %d\n%s%s",
				c.value, c.exit, code, c.want, out.String(), errOut.String())
		}
	}
}
