package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

// TestRunFleet runs four machines off one parent registry and checks
// the three telemetry views: per-machine child snapshots (self-relative
// keys, machine identity in Labels), the parent snapshot (every series
// labeled by machine), and the aggregated fleet view (counters summed
// across machines, identity intersected away).
func TestRunFleet(t *testing.T) {
	reg := obs.NewRegistry()
	fc := FleetConfig{
		Machines: 4,
		Campaign: CampaignConfig{
			Machine:     Config{N: 5},
			Failures:    2,
			LapsBetween: 1,
			Seed:        42,
		},
		Obs: reg,
	}
	rep, err := RunFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reports) != 4 || len(rep.Snapshots) != 4 {
		t.Fatalf("fleet size: %d reports, %d snapshots", len(rep.Reports), len(rep.Snapshots))
	}

	var embeds, failures int64
	for i, snap := range rep.Snapshots {
		id := fmt.Sprintf("m%d", i)
		if rep.IDs[i] != id {
			t.Errorf("IDs[%d] = %q, want %q", i, rep.IDs[i], id)
		}
		if snap.Labels["machine"] != id {
			t.Errorf("machine %d snapshot labels = %v", i, snap.Labels)
		}
		// Child snapshots are self-relative: plain keys, no machine label.
		if snap.Counters["sim.embeds"] < 1 {
			t.Errorf("machine %s recorded %d embeds", id, snap.Counters["sim.embeds"])
		}
		if got := snap.Counters["sim.failures"]; got != int64(fc.Campaign.Failures) {
			t.Errorf("machine %s sim.failures = %d, want %d", id, got, fc.Campaign.Failures)
		}
		embeds += snap.Counters["sim.embeds"]
		failures += snap.Counters["sim.failures"]

		// Each machine is the deterministic solo campaign at its seed:
		// identity labels must not perturb the simulation.
		solo := fc.Campaign
		solo.Seed += int64(i)
		want, err := RunCampaign(solo)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Reports[i]
		if got.Clock != want.Clock || got.Hops != want.Hops || got.FinalRing != want.FinalRing {
			t.Errorf("machine %s diverged from solo campaign: %+v vs %+v", id, got, want)
		}
	}

	// The parent sees every machine's series, labeled.
	parent := reg.Snapshot()
	for i := range rep.IDs {
		key := fmt.Sprintf(`sim.embeds{machine="m%d"}`, i)
		if parent.Counters[key] != rep.Snapshots[i].Counters["sim.embeds"] {
			t.Errorf("parent %s = %d, want %d; counters %v",
				key, parent.Counters[key], rep.Snapshots[i].Counters["sim.embeds"], parent.Counters)
		}
	}

	// The fleet view merges the children: counters summed, identity gone.
	if got := rep.Fleet.Counters["sim.embeds"]; got != embeds {
		t.Errorf("fleet sim.embeds = %d, want %d", got, embeds)
	}
	if got := rep.Fleet.Counters["sim.failures"]; got != failures {
		t.Errorf("fleet sim.failures = %d, want %d", got, failures)
	}
	if _, ok := rep.Fleet.Labels["machine"]; ok {
		t.Errorf("fleet view kept a machine identity: %v", rep.Fleet.Labels)
	}
	if got := rep.Fleet.Histograms["sim.phase.repair"].Count; got != failures {
		t.Errorf("fleet sim.phase.repair count = %d, want %d", got, failures)
	}
}

// TestFleetOpenMetrics renders both the per-machine-labeled parent
// exposition and the aggregated fleet exposition and validates them
// against the OpenMetrics grammar — the same checks starmon
// -check-metrics applies in the CI obs-smoke leg.
func TestFleetOpenMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := RunFleet(FleetConfig{
		Machines: 4,
		Campaign: CampaignConfig{
			Machine:     Config{N: 5},
			Failures:    1,
			LapsBetween: 1,
			Seed:        7,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := export.WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := export.ValidateOpenMetricsDetail(buf.Bytes()); err != nil {
		t.Fatalf("parent exposition invalid: %v\n%s", err, buf.String())
	}
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf(`machine="m%d"`, i)
		if !strings.Contains(buf.String(), want) {
			t.Errorf("parent exposition missing %s samples", want)
		}
	}

	buf.Reset()
	if err := export.WriteOpenMetrics(&buf, rep.Fleet); err != nil {
		t.Fatal(err)
	}
	if _, _, err := export.ValidateOpenMetricsDetail(buf.Bytes()); err != nil {
		t.Fatalf("fleet exposition invalid: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), `machine="`) {
		t.Error("fleet exposition leaked machine labels")
	}
	if !strings.Contains(buf.String(), "sim_embeds_total") {
		t.Errorf("fleet exposition missing sim_embeds_total:\n%s", buf.String())
	}
}

// TestFleetEventLogStamping installs a flight recorder with an NDJSON
// writer on the parent registry and checks every machine's records are
// stamped with its identity — the fix for per-machine events aliasing
// into one indistinguishable stream.
func TestFleetEventLogStamping(t *testing.T) {
	var buf strings.Builder
	reg := obs.NewRegistry()
	obs.NewFlightRecorder(reg, 64, &buf, obs.LevelInfo)
	_, err := RunFleet(FleetConfig{
		Machines: 4,
		Campaign: CampaignConfig{
			Machine:     Config{N: 5},
			Failures:    2,
			LapsBetween: 1,
			Seed:        42,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	perMachine := map[string]int{}
	for _, r := range recs {
		if r.Event != "sim.fault" {
			continue
		}
		id, _ := r.Fields["machine"].(string)
		if id == "" {
			t.Fatalf("sim.fault record missing machine stamp: %+v", r)
		}
		perMachine[id]++
	}
	if len(perMachine) != 4 {
		t.Fatalf("sim.fault events from %d machines, want 4: %v", len(perMachine), perMachine)
	}
	for id, n := range perMachine {
		if n != 2 {
			t.Errorf("machine %s emitted %d sim.fault events, want 2", id, n)
		}
	}
}

// A fleet machine whose repair fails leaves an obs.flight.error record
// stamped with the machine's identity, in the flight recorder's ring
// and in its NDJSON stream, like the machine's other records.
func TestMachineRepairFailureKeepsLabels(t *testing.T) {
	var buf strings.Builder
	reg := obs.NewRegistry()
	f := obs.NewFlightRecorder(reg, 64, &buf, obs.LevelInfo)
	m, err := New(Config{N: 5, ID: "m3", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// S_5 tolerates n-3 = 2 vertex faults; the third repair must fail.
	var halted error
	for i := 0; i < 3 && halted == nil; i++ {
		halted = m.FailVertex(m.TokenHolder())
	}
	if !errors.Is(halted, ErrHalted) {
		t.Fatalf("third failure: err = %v, want ErrHalted", halted)
	}

	streamed, err := obs.ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for where, recs := range map[string][]obs.Record{"ring": f.Events(), "ndjson": streamed} {
		errs := 0
		for _, r := range recs {
			if r.Fields["machine"] != "m3" {
				t.Errorf("%s: %s record lost the machine label: %+v", where, r.Event, r.Fields)
			}
			if r.Event == "obs.flight.error" {
				errs++
				if r.Fields["source"] != "core.repair" {
					t.Errorf("%s: error record source = %v, want core.repair", where, r.Fields["source"])
				}
			}
		}
		if errs != 1 {
			t.Errorf("%s: %d obs.flight.error records, want 1", where, errs)
		}
	}
}
