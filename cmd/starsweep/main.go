// Command starsweep regenerates the evaluation tables and series of
// EXPERIMENTS.md: each experiment validates one quantitative claim of
// the paper (see DESIGN.md's experiment index).
//
// Usage:
//
//	starsweep [-exp T1..T6|F1..F8|A1|all] [-maxn N] [-seeds K]
//	          [-quick] [-markdown | -json]
//	          [-debug-addr addr] [-metrics-json path]
//	          [-series-json path] [-series-period d] [-trace-out path]
//	          [-cpuprofile path] [-memprofile path]
//
// -json emits the selected tables as one JSON document,
// {"experiments": [...]}, for downstream tooling. -debug-addr serves
// expvar, pprof and an OpenMetrics endpoint (/metrics) during the sweep;
// -metrics-json dumps per-experiment timing spans (harness.exp.<ID>)
// and the embedder's phase metrics when the sweep finishes.
// -series-json samples the registry every -series-period (default 1s)
// into ring-buffered time series and dumps them as JSON; -trace-out
// writes the sweep's most recent spans — those in the flight
// recorder's ring of the last 1024 spans and log lines — as a Chrome
// trace_event JSON file loadable in Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/prof"
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
		traceOut     = flag.String("trace-out", "", "write the sweep's spans as Chrome trace_event JSON (Perfetto) to this file")
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

	if *cpuProfile != "" {
		stop, err := prof.StartCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := prof.WriteHeapProfile(*memProfile); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memProfile)
		}()
	}

	var (
		reg    *obs.Registry
		flight *obs.FlightRecorder
		rtStop func()
	)
	if *debugAddr != "" || *metricsJSON != "" || *seriesJSON != "" || *traceOut != "" || *flightDump != "" {
		reg = obs.NewRegistry()
		reg.PublishExpvar("starsweep")
		// Runtime health gauges (runtime_*) ride along with the sweep
		// metrics on /metrics, -metrics-json and -series-json.
		rtStop = prof.NewRuntimeSampler(reg).Start(time.Second)
		// The flight recorder's ring backs -trace-out and the bundle
		// (starsweep has no -events-out, so no writer): a mid-sweep embed
		// error leaves its recent telemetry behind when -flight-dump is
		// set.
		flight = obs.NewFlightRecorder(reg, 1024, nil, obs.LevelDebug)
		if *flightDump != "" {
			flight.SetAutoDump(*flightDump, export.FlightBundleWriter(flight))
		}
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		srv.Handle("/metrics", export.MetricsHandler(reg))
		srv.Handle("/debug/flight", export.FlightHandler(flight))
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s/debug/vars (pprof under /debug/pprof/, OpenMetrics under /metrics)\n", srv.Addr())
	}
	var (
		sampler     *export.Sampler
		stopSampler func()
	)
	if *seriesJSON != "" {
		sampler = export.NewSampler(reg, export.SamplerConfig{Period: *seriesPeriod})
		stopSampler = sampler.Start()
	}

	cfg := harness.SweepConfig{MaxN: *maxN, Seeds: *seeds, Quick: *quick, Obs: reg}

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

	if rtStop != nil {
		// stop takes a final sample so the dumps below reflect
		// end-of-sweep runtime state even for sub-second sweeps.
		rtStop()
	}
	if reg != nil && *metricsJSON != "" {
		if err := reg.WriteJSONFile(*metricsJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsJSON)
	}
	if sampler != nil {
		// stop takes one final sample so short sweeps still record their
		// end state even when they finish inside the first period.
		stopSampler()
		if err := sampler.WriteJSONFile(*seriesJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "series written to %s\n", *seriesJSON)
	}
	if reg != nil && *traceOut != "" {
		if err := export.WriteTraceFile(*traceOut, flight.SpanEvents()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}
	if flight != nil && *flightDump != "" {
		if err := flight.Dump(*flightDump, export.FlightBundleWriter(flight)); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flight bundle written to %s\n", *flightDump)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starsweep:", err)
	os.Exit(1)
}
