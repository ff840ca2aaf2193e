// Command starsweep regenerates the evaluation tables and series of
// EXPERIMENTS.md: each experiment validates one quantitative claim of
// the paper (see DESIGN.md's experiment index).
//
// Usage:
//
//	starsweep [-exp T1..T6|F1..F8|A1|all] [-maxn N] [-seeds K]
//	          [-quick] [-markdown | -json]
//	          [-debug-addr addr] [-metrics-json path]
//	          [-series-json path] [-series-period d] [-flight-dump dir]
//	          [-cpuprofile path] [-memprofile path]
//
// -json emits the selected tables as one JSON document,
// {"experiments": [...]}, for downstream tooling. -debug-addr serves
// expvar, pprof and an OpenMetrics endpoint (/metrics) during the sweep;
// -metrics-json dumps per-experiment timing spans (harness.exp.<ID>)
// and the embedder's phase metrics when the sweep finishes.
// -series-json samples the registry every -series-period (default 1s)
// into ring-buffered time series and dumps them as JSON; -flight-dump
// writes the flight recorder's bundle, whose flight-trace.json holds
// the sweep's most recent spans — those in its ring of the last 1024
// spans and log lines — as a Chrome trace_event JSON file loadable in
// Perfetto. Confirmation lines go to standard error, so standard
// output carries the tables or the -json document alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs/export"
	"repro/internal/perm"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (T1..T6, F1..F8, A1, or all)")
		maxN     = flag.Int("maxn", 8, "largest star-graph dimension to sweep")
		seeds    = flag.Int("seeds", 10, "random fault sets per configuration")
		quick    = flag.Bool("quick", false, "shrink the sweep for a fast smoke run")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown instead of aligned text")
		jsonOut  = flag.Bool("json", false, "emit the tables as a JSON document instead of aligned text")

		debugAddr    = flag.String("debug-addr", "", "serve expvar, pprof and /metrics on this address (e.g. localhost:6060)")
		metricsJSON  = flag.String("metrics-json", "", "write the sweep's metrics as JSON to this file")
		seriesJSON   = flag.String("series-json", "", "sample the registry periodically and write the time series as JSON to this file")
		seriesPeriod = flag.Duration("series-period", time.Second, "sampling period for -series-json")
		cpuProfile   = flag.String("cpuprofile", "", "write a phase-labeled CPU profile of the sweep to this file")
		memProfile   = flag.String("memprofile", "", "write a post-sweep heap profile to this file")
		flightDump   = flag.String("flight-dump", "", "write the flight-recorder post-mortem bundle to this directory (on error and at exit)")
	)
	flag.Parse()

	if *markdown && *jsonOut {
		fatal(fmt.Errorf("-markdown and -json are mutually exclusive"))
	}
	if *seeds < 1 {
		fatal(fmt.Errorf("-seeds %d: need at least one fault set per configuration", *seeds))
	}
	// S_4 is the smallest star graph every experiment runs on, and
	// perm.MaxN is core's ceiling.
	if *maxN < 4 || *maxN > perm.MaxN {
		fatal(fmt.Errorf("-maxn %d out of range [4,%d]", *maxN, perm.MaxN))
	}

	tel, err := export.StartSession(export.SessionConfig{
		Name: "starsweep", DebugAddr: *debugAddr, MetricsJSON: *metricsJSON, FlightDump: *flightDump,
		SeriesJSON: *seriesJSON, SeriesPeriod: *seriesPeriod, CPUProfile: *cpuProfile, MemProfile: *memProfile,
	}, os.Stderr)
	if err != nil {
		fatal(err)
	}
	cfg := harness.SweepConfig{MaxN: *maxN, Seeds: *seeds, Quick: *quick, Obs: tel.Registry()}

	switch {
	case *jsonOut:
		tables, err := harness.Collect(*exp, cfg)
		if err != nil {
			fatal(err)
		}
		doc := struct {
			Experiments []*harness.Table `json:"experiments"`
		}{Experiments: tables}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
	case *markdown:
		tables, err := harness.Collect(*exp, cfg)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			t.Markdown(os.Stdout)
		}
	default:
		if err := harness.Run(os.Stdout, *exp, cfg); err != nil {
			fatal(err)
		}
	}

	if err := tel.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starsweep:", err)
	os.Exit(1)
}
