package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric lists equal to what the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if got := workloads[w.Name].why; got != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", w.Name, w.Why, got)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, code has %v", names, workloadNames())
	}
	for _, c := range []struct {
		section string
		file    []struct{ Name, Unit string }
		code    []string
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var got []string
		for _, m := range c.file {
			got = append(got, m.Name)
			if unitOf[m.Name] != m.Unit {
				t.Errorf("%s %s: unit %q in BENCHMARK.json, %q in code", c.section, m.Name, m.Unit, unitOf[m.Name])
			}
		}
		if !reflect.DeepEqual(got, c.code) {
			t.Errorf("%s: BENCHMARK.json %v, code %v", c.section, got, c.code)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := genChurn(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genChurn(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genChurn(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	key := func(cs []churnCycle) string {
		var sb strings.Builder
		for _, x := range cs {
			sb.WriteString(x.initial.String())
			for _, v := range x.arrivals {
				sb.WriteString(v.StringN(churnN))
			}
			if x.verify {
				sb.WriteString("!")
			}
			sb.WriteString(";")
		}
		return sb.String()
	}
	if key(a) != key(b) {
		t.Error("churn inputs differ for one seed")
	}
	if key(a) == key(c) {
		t.Error("churn inputs equal for different seeds")
	}
	for _, x := range a {
		if x.initial.NumVertices()+len(x.arrivals) != churnN-3 {
			t.Errorf("lifecycle %v + %d arrivals does not end at the n-3 budget", x.initial, len(x.arrivals))
		}
	}

	sa, sb := genStream(7, 16), genStream(7, 16)
	for i := range sa {
		if sa[i].String() != sb[i].String() {
			t.Errorf("stream fault set %d differs for one seed", i)
		}
	}

	ra, rb := genServe(7, 5e9), genServe(7, 5e9)
	if !reflect.DeepEqual(ra, rb) {
		t.Error("serve request sequences differ for one seed")
	}
	if reflect.DeepEqual(ra, genServe(8, 5e9)) {
		t.Error("serve request sequences equal for different seeds")
	}
	if n := float64(len(ra)); n < 4*serveRate || n > 6*serveRate {
		t.Errorf("%g requests in 5s at %g req/s", n, serveRate)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "churn_n8", "--trace", "2"},
		{"--workload", "churn_n8", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestRunPrintsEveryMetric runs the cheapest workload for a second in
// both modes and checks the result line's shape.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	// The traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	for _, c := range []struct {
		trace string
		want  []string
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "churn_n8", "--seconds", "2", "--trace", c.trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, errOut.String())
		}
		var res result
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: %+v", c.trace, res)
		}
		var got []string
		for name, m := range res.Metrics {
			got = append(got, name)
			if m.Unit != unitOf[name] {
				t.Errorf("%s: unit %q", name, m.Unit)
			}
		}
		if len(got) != len(c.want) {
			t.Errorf("trace %s: printed %d metrics, want %d", c.trace, len(got), len(c.want))
		}
	}
}
