package export

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// SessionConfig holds a command's telemetry flags; "" or 0 is off.
type SessionConfig struct {
	Name         string        // the registry's key under the debug server's /debug/vars
	Registry     bool          // build the registry with no flag set: a server always needs one
	DebugAddr    string        // expvar, pprof, /metrics and /debug/flight
	MetricsJSON  string        // registry snapshot as JSON, at close
	EventsOut    string        // every log line as NDJSON, as it is recorded
	FlightDump   string        // post-mortem bundle, on error and at close
	SeriesJSON   string        // sampled time series, at close
	SeriesPeriod time.Duration // SeriesJSON's sampling period
	CPUProfile   string        // phase-labeled CPU profile of the run
	MemProfile   string        // heap profile, at close
	Hold         time.Duration // how long the debug server outlives the artifacts
}

// Session decides, for every command, how its telemetry is wired and
// which artifacts it leaves at exit.
type Session struct {
	cfg     SessionConfig
	out     io.Writer
	reg     *obs.Registry
	flight  *obs.FlightRecorder
	events  *os.File
	srv     *obs.DebugServer
	series  *Sampler
	cpuStop func() error
	stops   []func() // the samplers': each takes a final sample as it stops
}

// StartSession starts the CPU profile, then, if a registry-backed flag
// is set or cfg.Registry asks, a registry whose flight recorder keeps
// the last 1024 spans and log lines, the debug server and samplers.
func StartSession(cfg SessionConfig, out io.Writer) (_ *Session, err error) {
	s := &Session{cfg: cfg, out: out, cpuStop: func() error { return nil }}
	if cfg.CPUProfile != "" {
		if s.cpuStop, err = prof.StartCPUProfile(cfg.CPUProfile); err != nil {
			return nil, err
		}
	}
	if !cfg.Registry && cfg.DebugAddr == "" && cfg.MetricsJSON == "" &&
		cfg.EventsOut == "" && cfg.FlightDump == "" && cfg.SeriesJSON == "" {
		return s, nil
	}
	defer func() { // a failed start releases what it opened
		if err != nil {
			_ = s.cpuStop()
			_ = s.events.Close() // a nil *os.File returns os.ErrInvalid
		}
	}()
	var w io.Writer
	if cfg.EventsOut != "" {
		if s.events, err = os.Create(cfg.EventsOut); err != nil {
			return nil, err
		}
		w = s.events
	}
	s.reg = obs.NewRegistry()
	s.flight = obs.NewFlightRecorder(s.reg, 1024, w, obs.LevelDebug)
	s.flight.SetAutoDump(cfg.FlightDump, FlightBundleWriter(s.flight)) // "" stays disarmed
	if cfg.DebugAddr != "" {
		if s.srv, err = obs.StartDebugServer(cfg.DebugAddr); err != nil {
			return nil, err
		}
		s.reg.PublishExpvar(cfg.Name)
		s.srv.Handle("/metrics", MetricsHandler(s.reg))
		s.srv.Handle("/debug/flight", FlightHandler(s.flight))
		fmt.Fprintf(out, "debug server listening on http://%s/debug/vars (pprof under /debug/pprof/, OpenMetrics under /metrics)\n", s.srv.Addr())
	}
	s.stops = append(s.stops, prof.NewRuntimeSampler(s.reg).Start(time.Second))
	if cfg.SeriesJSON != "" {
		s.series = NewSampler(s.reg, SamplerConfig{Period: cfg.SeriesPeriod})
		s.stops = append(s.stops, s.series.Start())
	}
	return s, nil
}

// Registry returns the session's registry, nil when telemetry is off.
func (s *Session) Registry() *obs.Registry { return s.reg }

// Close writes the artifacts below in order, confirming each on out,
// and closes the events file before holding for cfg.Hold, so scrapers
// see the final state. It stops at the first error.
func (s *Session) Close() error {
	for _, stop := range s.stops {
		stop()
	}
	for _, a := range []struct {
		what, path string
		write      func(string) error
	}{
		{"cpu profile", s.cfg.CPUProfile, func(string) error { return s.cpuStop() }},
		{"heap profile", s.cfg.MemProfile, prof.WriteHeapProfile},
		{"metrics", s.cfg.MetricsJSON, s.reg.WriteJSONFile},
		{"series", s.cfg.SeriesJSON, s.series.WriteJSONFile},
		{"flight bundle", s.cfg.FlightDump, func(dir string) error { return s.flight.Dump(dir, FlightBundleWriter(s.flight)) }},
	} {
		if a.path == "" {
			continue
		}
		if err := a.write(a.path); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s written to %s\n", a.what, a.path)
	}
	if s.events != nil {
		if err := s.events.Close(); err != nil {
			return err
		}
	}
	if s.cfg.Hold > 0 {
		fmt.Fprintf(s.out, "holding for %v\n", s.cfg.Hold)
		time.Sleep(s.cfg.Hold)
	}
	if s.srv != nil {
		_ = s.srv.Close() // every artifact is on disk; nothing is left to report
	}
	return nil
}
