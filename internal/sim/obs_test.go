package sim

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCampaignObsAccounting runs a small campaign with a registry and
// checks the counters mirror the deterministic Stats — and that the
// instrumented run reproduces the uninstrumented one exactly.
func TestCampaignObsAccounting(t *testing.T) {
	cfg := CampaignConfig{
		Machine:     Config{N: 5},
		Failures:    2,
		LapsBetween: 1,
		Seed:        42,
	}
	plain, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg.Machine.Obs = reg
	instrumented, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if plain.Clock != instrumented.Clock || plain.Hops != instrumented.Hops ||
		plain.FinalRing != instrumented.FinalRing {
		t.Errorf("instrumentation perturbed the simulation: %+v vs %+v", plain, instrumented)
	}
	// One boot embedding plus one full re-embedding per rebuild repair;
	// splices never run the cold pipeline.
	wantEmbeds := int64(1 + instrumented.Reembeds)
	if got := reg.Counter("sim.embeds").Value(); got != wantEmbeds {
		t.Errorf("sim.embeds = %d, want %d", got, wantEmbeds)
	}
	if got := reg.Counter("sim.splices").Value(); got != int64(instrumented.Splices) {
		t.Errorf("sim.splices = %d, want %d", got, instrumented.Splices)
	}
	if instrumented.Splices+instrumented.Reembeds != cfg.Failures {
		t.Errorf("splices %d + reembeds %d != %d on-ring failures",
			instrumented.Splices, instrumented.Reembeds, cfg.Failures)
	}
	if got := reg.Counter("sim.failures").Value(); got != int64(cfg.Failures) {
		t.Errorf("sim.failures = %d, want %d", got, cfg.Failures)
	}
	if got := reg.Gauge("sim.ring_length").Value(); got != int64(instrumented.FinalRing) {
		t.Errorf("sim.ring_length = %d, want %d", got, instrumented.FinalRing)
	}
	// The boot embedding is the only sim.phase.reembed span; online
	// failures are timed under sim.phase.repair instead.
	if got := reg.Histogram("sim.phase.reembed").Stats().Count; got != 1 {
		t.Errorf("sim.phase.reembed count = %d, want 1", got)
	}
	if got := reg.Histogram("sim.phase.repair").Stats().Count; got != int64(cfg.Failures) {
		t.Errorf("sim.phase.repair count = %d, want %d", got, cfg.Failures)
	}
	if got := reg.Counter("sim.token_lost").Value(); got != int64(instrumented.TokenLost) {
		t.Errorf("sim.token_lost = %d, want %d", got, instrumented.TokenLost)
	}
	// The embedder inherited the registry through Config.Embed: the cold
	// pipeline ran for the boot and every rebuild, and the repair
	// counters account for every splice.
	if reg.Histogram("core.phase.total").Stats().Count != wantEmbeds {
		t.Error("core phases not threaded through sim.Config.Embed")
	}
	if got := reg.Counter("core.repair.splices").Value(); got != int64(instrumented.Splices) {
		t.Errorf("core.repair.splices = %d, want %d", got, instrumented.Splices)
	}
}

// TestCampaignEventLog checks the structured event stream: every
// injected failure emits a sim.fault and a sim.repair record (plus the
// embedder's core.repair), per-hop token moves stay silent above debug
// level, and instrumentation still does not perturb the simulation.
func TestCampaignEventLog(t *testing.T) {
	cfg := CampaignConfig{
		Machine:     Config{N: 5},
		Failures:    2,
		LapsBetween: 1,
		Seed:        42,
	}
	plain, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	reg := obs.NewRegistry()
	obs.NewFlightRecorder(reg, 64, &buf, obs.LevelInfo)
	cfg.Machine.Obs = reg
	logged, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Clock != logged.Clock || plain.Hops != logged.Hops || plain.FinalRing != logged.FinalRing {
		t.Errorf("event logging perturbed the simulation: %+v vs %+v", plain, logged)
	}

	recs, err := obs.ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range recs {
		count[r.Event]++
	}
	if count["sim.fault"] != cfg.Failures {
		t.Errorf("sim.fault events = %d, want %d", count["sim.fault"], cfg.Failures)
	}
	if count["sim.repair"] != cfg.Failures {
		t.Errorf("sim.repair events = %d, want %d", count["sim.repair"], cfg.Failures)
	}
	// The plan's own repair narrative rides along through the inherited
	// registry, as does every cold embedding.
	if count["core.repair"] != cfg.Failures {
		t.Errorf("core.repair events = %d, want %d", count["core.repair"], cfg.Failures)
	}
	if want := 1 + logged.Reembeds; count["core.embed"] != want {
		t.Errorf("core.embed events = %d, want %d", count["core.embed"], want)
	}
	if count["sim.token_move"] != 0 {
		t.Errorf("token moves leaked into an info-level log: %d", count["sim.token_move"])
	}
	for _, r := range recs {
		if r.Event == "sim.repair" {
			out, _ := r.Fields["outcome"].(string)
			if out != "splice" && out != "rebuild" && out != "avoided" {
				t.Errorf("sim.repair outcome %q", out)
			}
		}
	}

	// At debug level the token's every hop is on the record.
	var dbuf strings.Builder
	dreg := obs.NewRegistry()
	obs.NewFlightRecorder(dreg, 64, &dbuf, obs.LevelDebug)
	cfg.Machine.Obs = dreg
	debugRun, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drecs, err := obs.ReadLog(strings.NewReader(dbuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, r := range drecs {
		if r.Event == "sim.token_move" {
			moves++
		}
	}
	if int64(moves) != debugRun.Hops {
		t.Errorf("sim.token_move events = %d, want one per hop (%d)", moves, debugRun.Hops)
	}
}
