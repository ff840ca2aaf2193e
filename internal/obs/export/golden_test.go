package export

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// Regenerate the telemetry goldens after an intended format change:
//
//	go test ./internal/obs/export -run TestTelemetryGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/telemetry.* from the current writers")

// goldenRegistry builds the fixed registry the telemetry golden
// renders, on a manual clock: one plain metric of each kind, a counter
// family and a histogram family with two label sets each (one label
// value needing every OpenMetrics escape), and a traced observation
// with a fixed trace id, so the exemplar clause is pinned too.
func goldenRegistry() (*obs.Registry, *obs.Manual) {
	clock := obs.NewManual(time.Unix(1700000000, 0))
	reg := obs.NewRegistry()
	reg.SetClock(clock)
	reg.Counter("t.ops.count").Add(3)
	reg.Gauge("t.pool.size").Set(7)
	reg.Histogram("t.phase.route").Observe(2 * time.Millisecond)

	embeds := reg.CounterVec("t.embed.completed", "mode", "n")
	embeds.With("mode", "guaranteed", "n", "6").Add(2)
	embeds.With("mode", "say \"hi\"\\\n", "n", "7").Inc()

	lat := reg.HistogramVec("t.request.latency", "route")
	lat.With("route", "/embed").Observe(3 * time.Millisecond)
	lat.With("route", "/embed").Observe(40 * time.Microsecond)
	lat.With("route", "/ring").ObserveTrace(5*time.Millisecond, obs.TraceID(0x00000000deadbeef))
	return reg, clock
}

// TestTelemetryGolden pins, byte for byte, what the registry's JSON
// snapshot, the OpenMetrics exposition and a two-sample sampler dump
// make of one fixed registry.
func TestTelemetryGolden(t *testing.T) {
	reg, clock := goldenRegistry()
	var snapshot, exposition, series bytes.Buffer
	if err := reg.WriteJSON(&snapshot); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpenMetrics(&exposition, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s := NewSampler(reg, SamplerConfig{Capacity: 4})
	s.Sample()
	clock.Advance(time.Second)
	reg.Counter("t.ops.count").Inc()
	reg.Gauge("t.pool.size").Set(5)
	reg.CounterVec("t.embed.completed", "mode", "n").With("mode", "guaranteed", "n", "6").Inc()
	reg.HistogramVec("t.request.latency", "route").With("route", "/ring").Observe(9 * time.Millisecond)
	s.Sample()
	if err := s.WriteJSON(&series); err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"telemetry.snapshot.json", snapshot.Bytes()},
		{"telemetry.openmetrics.txt", exposition.Bytes()},
		{"telemetry.series.json", series.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from the golden\n--- got ---\n%s--- want ---\n%s", path, g.got, want)
		}
	}
}
