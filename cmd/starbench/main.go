// Command starbench is the perf-regression gate over perfbench, the
// benchmark of record. From the repository root it runs each workload in
// BENCHMARK.json at seeds 1 to 5 for 10 seconds, and fails (exit 1)
// when a run fails, when the baseline (scripts/perf-baseline.ndjson)
// lacks a run or a metric or ran at another --seconds, or when the median
// over seeds of an end-to-end metric is worse than the baseline's by more
// than its BENCHMARK.json bound. -write re-measures and rewrites it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	// seconds is every run's --seconds: at 5 s stream_n9 timed as few as
	// 35 operations, too few for 10 samples beyond its p75 tail.
	seconds      = 10
	baselineFile = "scripts/perf-baseline.ndjson"
)

// seeds has an odd length, so the median is one run and two noisy seeds
// are outvoted. A false failure at unchanged code calls for more seeds,
// never a wider bound.
var seeds = []int{1, 2, 3, 4, 5}

// benchmark is the part of BENCHMARK.json the gate reads; encoding/json
// matches its keys to the field names regardless of case.
type benchmark struct {
	Command   []string
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Better string  // Better is "lower" or "higher"
		Bound        float64 // the largest relative move towards worse
	} `json:"end_to_end"`
}

// result is one perfbench result line, tagged with the run that printed
// it. The baseline holds one per workload and seed.
type result struct {
	Workload  string `json:"workload"`
	Seed      int    `json:"seed"`
	Seconds   int    `json:"seconds"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run is main minus the process exit; root is the repository root. It
// returns 1 when the gate fails and 2 on bad usage or unreadable input.
func run(args []string, root string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("starbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	write := fs.Bool("write", false, "re-measure every run and rewrite "+baselineFile)
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: starbench [-write]")
		return 2
	}
	var spec benchmark
	var base []result
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err == nil && !*write {
		data, err = os.ReadFile(filepath.Join(root, baselineFile))
		for dec := json.NewDecoder(bytes.NewReader(data)); err == nil && dec.More(); {
			base = append(base, result{})
			err = dec.Decode(&base[len(base)-1])
		}
	}
	if err == nil && len(spec.Command) == 0 {
		err = fmt.Errorf("BENCHMARK.json names no command")
	}
	if err != nil {
		fmt.Fprintln(stderr, "starbench:", err)
		return 2
	}

	var fresh []result
	var problems []string
	for _, wl := range spec.Workloads {
		for _, seed := range seeds {
			if r, err := measure(root, spec.Command, wl.Name, seed, stderr); err != nil {
				problems = append(problems, err.Error())
			} else {
				fresh = append(fresh, r)
			}
		}
	}
	if !*write {
		problems = append(problems, gate(stdout, spec, base, fresh)...)
	} else if len(problems) == 0 {
		var buf bytes.Buffer
		for _, r := range fresh {
			line, _ := json.Marshal(r) // decoded from JSON, so it encodes
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(filepath.Join(root, baselineFile), buf.Bytes(), 0o644); err != nil {
			problems = append(problems, err.Error())
		} else {
			fmt.Fprintf(stdout, "wrote %d runs at --seconds %d to %s\n", len(fresh), seconds, baselineFile)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "starbench:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// measure runs command for one workload and seed and parses its result.
func measure(dir string, command []string, workload string, seed int, stderr io.Writer) (result, error) {
	r := result{Workload: workload, Seed: seed, Seconds: seconds}
	args := append(command[1:len(command):len(command)], "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir, cmd.Stderr = dir, stderr
	out, err := cmd.Output()
	if err == nil {
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %v", workload, seed, err)
	}
	return r, nil
}

// gate checks both sets of runs, prints one row per workload and
// end-to-end metric, and returns every problem that fails the gate.
func gate(w io.Writer, spec benchmark, base, fresh []result) []string {
	var problems []string
	for i, rs := range [2][]result{base, fresh} {
		for _, r := range rs {
			if r.Seconds != seconds || !r.Correct || r.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s %s seed %d: --seconds %d (the gate's: %d), correct %t, %d of %d operations failed",
					[2]string{"baseline", "fresh"}[i], r.Workload, r.Seed, r.Seconds, seconds, r.Correct, r.Failed, r.Attempted))
			}
		}
	}
	fmt.Fprintf(w, "%-10s %-13s %10s %10s %21s %7s %5s %5s  %s\n", "workload", "metric", "baseline", "fresh", "fresh spread", "change", "bound", "share", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			bv, fv := values(base, wl.Name, m.Name), values(fresh, wl.Name, m.Name)
			if len(bv) != len(seeds) || len(fv) != len(seeds) {
				problems = append(problems, fmt.Sprintf("%s %s: %d baseline and %d fresh values, want one per seed of %v",
					wl.Name, m.Name, len(bv), len(fv), seeds))
				continue
			}
			b, f := bv[len(bv)/2], fv[len(fv)/2]
			// share is the part of the allowed move towards worse taken;
			// past 100% is a regression.
			share, worse := (f/b-1)/m.Bound, f > b*(1+m.Bound)
			if m.Better == "higher" {
				share, worse = -share, f < b*(1-m.Bound)
			}
			verdict := "ok"
			if worse {
				verdict = "REGRESSED"
				problems = append(problems, fmt.Sprintf("%s %s REGRESSED; split it by layer with %s --workload %s --seed %d --seconds 30 --trace 1",
					wl.Name, m.Name, strings.Join(spec.Command, " "), wl.Name, seeds[0]))
			}
			fmt.Fprintf(w, "%-10s %-13s %10.4g %10.4g %10.4g–%-10.4g %+6.1f%% %4g%% %4.0f%%  %s\n",
				wl.Name, m.Name, b, f, fv[0], fv[len(fv)-1], 100*(f/b-1), 100*m.Bound, 100*share, verdict)
		}
	}
	return problems
}

// values returns a workload's metric over rs, sorted.
func values(rs []result, workload, metric string) []float64 {
	var vals []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vals = append(vals, m.Value)
		}
	}
	sort.Float64s(vals)
	return vals
}
