package export

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestWriteOpenMetricsLabeled renders a registry with labeled families
// and checks the exposition: one TYPE per family across all its label
// sets, quantile labels composed with metric labels, and the whole
// page accepted by the validator.
func TestWriteOpenMetricsLabeled(t *testing.T) {
	reg := obs.NewRegistry()
	v := reg.CounterVec("core.embed.completed", "n", "mode")
	v.With("n", "6", "mode", "guaranteed").Add(2)
	v.With("n", "7", "mode", "besteffort").Inc()
	embeds := reg.CounterVec("sim.embeds", "machine")
	embeds.With("machine", "m0").Add(3)
	embeds.With("machine", "m1").Inc()
	reg.HistogramVec("sim.phase.repair", "machine").With("machine", "m0").Observe(2 * time.Millisecond)

	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`core_embed_completed_total{mode="guaranteed",n="6"} 2`,
		`core_embed_completed_total{mode="besteffort",n="7"} 1`,
		`sim_embeds_total{machine="m0"} 3`,
		`sim_embeds_total{machine="m1"} 1`,
		`sim_phase_repair{machine="m0",quantile="0.5"} `,
		`sim_phase_repair_count{machine="m0"} 1`,
		`sim_phase_repair_max_seconds{machine="m0"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled exposition missing %q:\n%s", want, out)
		}
	}
	// Two label sets, one family, one declaration.
	if got := strings.Count(out, "# TYPE core_embed_completed counter"); got != 1 {
		t.Errorf("core_embed_completed declared %d times:\n%s", got, out)
	}
	if got := strings.Count(out, "# TYPE sim_embeds counter"); got != 1 {
		t.Errorf("sim_embeds declared %d times:\n%s", got, out)
	}
	if _, err := ParseOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("labeled exposition does not validate: %v\n%s", err, out)
	}
}

// TestWriteOpenMetricsEscapedValues pushes the OpenMetrics escapes
// through the full pipeline: label values carrying quotes, backslashes
// and newlines must render escaped and still validate.
func TestWriteOpenMetricsEscapedValues(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterVec("t.errors", "detail").With("detail", "say \"hi\"\\\n").Inc()
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `t_errors_total{detail="say \"hi\"\\\n"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, buf.String())
	}
	if _, err := ParseOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("escaped exposition does not validate: %v\n%s", err, buf.String())
	}
}

func TestValidateLabelSetRejects(t *testing.T) {
	page := func(sample string) []byte {
		return []byte("# TYPE a gauge\n" + sample + "\n# EOF\n")
	}
	cases := map[string]string{
		"bare word":        `a{k} 1`,
		"unquoted value":   `a{k=v} 1`,
		"illegal name":     `a{9k="v"} 1`,
		"dotted name":      `a{k.x="v"} 1`,
		"duplicate name":   `a{k="v",k="w"} 1`,
		"missing comma":    `a{k="v"j="w"} 1`,
		"trailing comma":   `a{k="v",} 1`,
		"bad escape":       `a{k="\t"} 1`,
		"dangling escape":  `a{k="v\"} 1`,
		"unterminated val": `a{k="v} 1`,
	}
	for label, sample := range cases {
		if _, err := ParseOpenMetrics(page(sample)); err == nil {
			t.Errorf("%s: validator accepted %q", label, sample)
		}
	}
	for _, ok := range []string{
		`a{k="v"} 1`,
		`a{k="v",l="w"} 1`,
		`a{k="quote \" slash \\ newline \n"} 1`,
	} {
		if _, err := ParseOpenMetrics(page(ok)); err != nil {
			t.Errorf("validator rejected well-formed %q: %v", ok, err)
		}
	}
}
