package export

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestWriteOpenMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("t.s4.cache_hits").Add(42)
	reg.Gauge("t.route.workers").Set(8)
	reg.Histogram("t.phase.route").Observe(1500 * time.Microsecond)

	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE t_s4_cache_hits counter\n",
		"t_s4_cache_hits_total 42\n",
		"# TYPE t_route_workers gauge\n",
		"t_route_workers 8\n",
		"# TYPE t_phase_route summary\n",
		`t_phase_route{quantile="0.5"} `,
		`t_phase_route{quantile="0.95"} `,
		"t_phase_route_count 1\n",
		"# TYPE t_phase_route_max_seconds gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(strings.TrimRight(out, "\n"), "# EOF") {
		t.Errorf("exposition not terminated by # EOF:\n%s", out)
	}

	page, err := ParseOpenMetrics(buf.Bytes())
	if err != nil {
		t.Fatalf("our own exposition does not validate: %v\n%s", err, out)
	}
	// counter + gauge + summary + max gauge.
	if page.Families != 4 {
		t.Errorf("families = %d, want 4", page.Families)
	}
}

func TestWriteOpenMetricsDeterministic(t *testing.T) {
	reg := obs.NewRegistry()
	for _, name := range []string{"t.b", "t.a", "t.c"} {
		reg.Counter(name).Inc()
	}
	var first bytes.Buffer
	if err := WriteOpenMetrics(&first, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := WriteOpenMetrics(&again, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", first.String(), again.String())
		}
	}
	if idx := strings.Index(first.String(), "t_a_total"); idx < 0 || idx > strings.Index(first.String(), "t_b_total") {
		t.Errorf("families not sorted:\n%s", first.String())
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("t.ops.count").Add(5)
	ts := httptest.NewServer(MetricsHandler(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("content type %q is not the OpenMetrics negotiation", ct)
	}
	if _, err := ParseOpenMetrics(body); err != nil {
		t.Fatalf("handler served invalid OpenMetrics: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "t_ops_count_total 5") {
		t.Errorf("live counter missing from scrape:\n%s", body)
	}
}

func TestValidateOpenMetricsRejects(t *testing.T) {
	cases := map[string]string{
		"missing EOF":        "# TYPE a counter\na_total 1\n",
		"undeclared sample":  "a_total 1\n# EOF\n",
		"bad type":           "# TYPE a widget\n# EOF\n",
		"bad value":          "# TYPE a gauge\na notanumber\n# EOF\n",
		"duplicate family":   "# TYPE a gauge\n# TYPE a gauge\n# EOF\n",
		"content after EOF":  "# EOF\n# TYPE a gauge\n",
		"illegal name":       "# TYPE 9bad counter\n# EOF\n",
		"malformed metadata": "# TYPE onlyname\n# EOF\n",
	}
	for label, text := range cases {
		if _, err := ParseOpenMetrics([]byte(text)); err == nil {
			t.Errorf("%s: validator accepted %q", label, text)
		}
	}
	if page, err := ParseOpenMetrics([]byte("# EOF\n")); err != nil || page.Families != 0 {
		t.Errorf("empty exposition: page=%+v err=%v", page, err)
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"core.phase.stream_emit": "core_phase_stream_emit",
		"harness.exp.F7":         "harness_exp_F7",
		"9lead":                  "_lead",
		"a-b":                    "a_b",
	} {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestOpenMetricsExemplars: a traced op's root-span histogram must
// expose its slowest observation as an OpenMetrics exemplar on the p95
// line, and the validator must parse and count it.
func TestOpenMetricsExemplars(t *testing.T) {
	clock := obs.NewManual(time.Unix(100, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	op := reg.StartOp("t.op.run")
	clock.Advance(time.Millisecond)
	op.End()
	reg.Histogram("t.phase.plain").Observe(time.Millisecond) // untraced

	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `t_op_run{quantile="0.95"} 0.001 # {trace_id="` + op.Trace().String() + `"} 0.001`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing exemplar line %q:\n%s", want, out)
	}
	if strings.Contains(out, `t_phase_plain{quantile="0.95"} 0.001 #`) {
		t.Errorf("untraced histogram grew an exemplar:\n%s", out)
	}
	page, err := ParseOpenMetrics(buf.Bytes())
	if err != nil || page.Families == 0 {
		t.Fatalf("page=%+v err=%v", page, err)
	}
	if page.Exemplars != 1 {
		t.Errorf("exemplars = %d, want 1", page.Exemplars)
	}
}

func TestValidateOpenMetricsExemplarRejects(t *testing.T) {
	page := func(sample string) []byte {
		return []byte("# TYPE t_op_run summary\n" + sample + "\n# EOF\n")
	}
	// A well-formed exemplar passes.
	if p, err := ParseOpenMetrics(page(`t_op_run{quantile="0.95"} 0.1 # {trace_id="00000000000000ff"} 0.1`)); err != nil || p.Exemplars != 1 {
		t.Errorf("valid exemplar: page=%+v err=%v", p, err)
	}
	// A non-float exemplar value fails.
	if _, err := ParseOpenMetrics(page(`t_op_run{quantile="0.95"} 0.1 # {trace_id="ff"} wat`)); err == nil {
		t.Error("non-float exemplar value accepted")
	}
	// An exemplar without braces is not a comment; it breaks the grammar.
	if _, err := ParseOpenMetrics(page(`t_op_run{quantile="0.95"} 0.1 # trace_id 0.1`)); err == nil {
		t.Error("brace-less exemplar accepted")
	}
}

func TestParseOpenMetricsExemplar(t *testing.T) {
	page, err := ParseOpenMetrics([]byte("# TYPE t_op_run summary\n" +
		"t_op_run{quantile=\"0.5\"} 0.001\n" +
		"t_op_run{quantile=\"0.95\"} 0.002 # {trace_id=\"00000000000000ff\"} 0.002\n" +
		"# EOF\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := page.Samples[`t_op_run{quantile="0.95"}`]; v != 0.002 {
		t.Errorf("exemplar line parsed to %v, want 0.002 (samples: %v)", v, page.Samples)
	}
	if page.Types["t_op_run"] != "summary" {
		t.Errorf("types = %v", page.Types)
	}
	if page.Traces[`t_op_run{quantile="0.95"}`] != "00000000000000ff" {
		t.Errorf("traces = %v", page.Traces)
	}
	if _, ok := page.Traces[`t_op_run{quantile="0.5"}`]; ok {
		t.Error("exemplar invented for a plain line")
	}
}
