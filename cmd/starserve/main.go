// Command starserve runs the embedding service: the star-graph ring
// embedder behind an HTTP API, one warm engine and a bounded pool of
// slots per dimension, with the request-scoped observability pipeline
// from internal/serve.
//
// Usage:
//
//	starserve -addr localhost:8080                  # serve 3 <= n <= 7
//	starserve -addr :0 -min-n 4 -max-n 6 -pool 4    # sized pools
//	starserve -addr :0 -max-inflight 64 -max-queue 8
//	starserve -load -target http://host:8080        # fault-churn load
//	starserve -load -requests 500 -out load.json    # self-hosted
//
// The API routes are GET /embed, /repair and /ring (query parameters
// n, fv, fe, v, best_effort — see internal/serve.ParseRequest); the
// operational surface is /healthz, /readyz (503 while warming or
// saturated), /metrics (OpenMetrics with the serve.* RED families) and
// /debug/flight (the flight-recorder bundle as a tar). Every response
// echoes the X-Star-Trace id the request's server-side timeline is
// filed under; pass that id to starmon -postmortem over the bundle
// from -flight-dump to reconstruct a client-reported slow or failed
// request. Any 5xx auto-dumps the bundle while the process still
// serves.
//
// -load switches to the built-in load generator: workers replay the
// lifecycle of a degrading S_n instance (embed, then one /repair per
// fresh random fault until the n-3 budget is spent, then reset), with
// /ring materializations every -ring-every requests and /chaos faults
// every -chaos-every. With no -target it boots a private in-process
// server first. -out writes the per-route latency/error/shed summary
// as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs/export"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected, so tests can drive both modes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("starserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
		minN        = fs.Int("min-n", 3, "smallest served dimension")
		maxN        = fs.Int("max-n", 7, "largest served dimension")
		poolSize    = fs.Int("pool", 2, "requests per dimension that embed at once")
		maxInflight = fs.Int("max-inflight", 0, "admission limit across routes; beyond it requests shed with 429 (0 = off)")
		maxQueue    = fs.Int("max-queue", 0, "callers queued per engine pool; beyond it requests shed with 429 (0 = off)")
		bestEffort  = fs.Bool("best-effort", false, "serve fault sets beyond the n-3 budget by default")
		verify      = fs.Bool("verify-repairs", false, "re-verify the ring after every /repair")
		chaos       = fs.Bool("chaos", false, "expose /chaos, a deterministic 500 for overload drills")
		dur         = fs.Duration("dur", 0, "serve this long, then exit cleanly (0 = until SIGINT/SIGTERM)")

		eventsOut  = fs.String("events-out", "", "write structured NDJSON events (serve.request, core.*) to this file")
		flightDump = fs.String("flight-dump", "", "flight-recorder bundle directory: auto-dumped on any 5xx and at exit")

		load       = fs.Bool("load", false, "run the fault-churn load generator instead of serving")
		target     = fs.String("target", "", "with -load: base URL of the server (empty boots a private in-process one)")
		loadN      = fs.Int("load-n", 6, "with -load: churned dimension")
		requests   = fs.Int("requests", 200, "with -load: total requests across workers")
		conc       = fs.Int("concurrency", 4, "with -load: worker count")
		seed       = fs.Int64("seed", 1, "with -load: churn/trace seed")
		ringEvery  = fs.Int("ring-every", 0, "with -load: every k-th request is a full /ring materialization")
		chaosEvery = fs.Int("chaos-every", 0, "with -load: every k-th request is a /chaos injected failure")
		out        = fs.String("out", "", "with -load: write the JSON summary here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := serve.Config{
		MinN: *minN, MaxN: *maxN, PoolSize: *poolSize,
		MaxInflight: *maxInflight, MaxQueue: *maxQueue,
		BestEffort: *bestEffort, VerifyRepairs: *verify, Chaos: *chaos,
	}
	if *load {
		return runLoad(stdout, stderr, cfg, loadOpts{
			target: *target, n: *loadN, requests: *requests, conc: *conc,
			seed: *seed, ringEvery: *ringEvery, chaosEvery: *chaosEvery,
			out: *out, eventsOut: *eventsOut, flightDump: *flightDump,
		})
	}
	return runServe(stdout, stderr, cfg, *addr, *dur, *eventsOut, *flightDump)
}

// runServe boots the service and blocks until SIGINT/SIGTERM (or -dur
// elapses), then shuts down gracefully.
func runServe(stdout, stderr io.Writer, cfg serve.Config, addr string, dur time.Duration, eventsOut, flightDump string) int {
	tel, err := export.StartSession(export.SessionConfig{Registry: true, EventsOut: eventsOut, FlightDump: flightDump}, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "starserve:", err)
		return 1
	}
	cfg.Obs = tel.Registry()
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "starserve:", err)
		tel.Close()
		return 1
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, "starserve:", err)
		tel.Close()
		return 1
	}
	// Serve immediately — /readyz says 503 until the warm-up below
	// finishes, which is exactly what a balancer should see.
	fmt.Fprintf(stdout, "starserve listening on http://%s\n", ln.Addr())
	srv := s.HTTPServer()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	if err := s.Warm(); err != nil {
		fmt.Fprintln(stderr, "starserve:", err)
		srv.Close()
		tel.Close()
		return 1
	}
	fmt.Fprintf(stdout, "pools warm: n in [%d,%d], %d slots each\n", cfg.MinN, cfg.MaxN, cfg.PoolSize)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if dur > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, dur)
		defer tcancel()
	}

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "starserve:", err)
		tel.Close()
		return 1
	case <-ctx.Done():
	}
	shctx, shcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shcancel()
	if err := srv.Shutdown(shctx); err != nil {
		fmt.Fprintln(stderr, "starserve: shutdown:", err)
	}
	if err := tel.Close(); err != nil {
		fmt.Fprintln(stderr, "starserve:", err)
		return 1
	}
	fmt.Fprintln(stdout, "starserve: bye")
	return 0
}

type loadOpts struct {
	target                string
	n, requests, conc     int
	seed                  int64
	ringEvery, chaosEvery int
	out                   string
	eventsOut, flightDump string
}

// runLoad drives the fault-churn generator. With no target it boots a
// private in-process server on an ephemeral port first (with /chaos
// routed whenever the churn will hit it), so `starserve -load` alone is
// a self-contained load test.
func runLoad(stdout, stderr io.Writer, cfg serve.Config, o loadOpts) int {
	lcfg := serve.LoadConfig{
		Target: o.target, N: o.n, Requests: o.requests, Concurrency: o.conc,
		Seed: o.seed, RingEvery: o.ringEvery, ChaosEvery: o.chaosEvery,
	}
	if o.target == "" {
		tel, err := export.StartSession(export.SessionConfig{Registry: true, EventsOut: o.eventsOut, FlightDump: o.flightDump}, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "starserve:", err)
			return 1
		}
		defer tel.Close()
		cfg.Obs = tel.Registry()
		cfg.Chaos = cfg.Chaos || o.chaosEvery > 0
		if o.n < cfg.MinN || o.n > cfg.MaxN {
			cfg.MinN, cfg.MaxN = o.n, o.n
		}
		s, err := serve.New(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "starserve:", err)
			return 1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(stderr, "starserve:", err)
			return 1
		}
		srv := s.HTTPServer()
		go srv.Serve(ln)
		defer srv.Close()
		if err := s.Warm(); err != nil {
			fmt.Fprintln(stderr, "starserve:", err)
			return 1
		}
		lcfg.Target = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "self-hosted server on %s\n", lcfg.Target)
	}

	res, err := serve.RunLoad(lcfg)
	if err != nil {
		fmt.Fprintln(stderr, "starserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "load done: %d requests, %d workers, n=%d, seed=%d\n",
		res.Requests, res.Concurrency, res.N, res.Seed)
	for _, route := range []string{"embed", "repair", "ring", "chaos"} {
		st := res.Routes[route]
		if st == nil {
			continue
		}
		fmt.Fprintf(stdout, "  /%-6s %5d requests  errors=%d shed=%d  p50=%v p95=%v max=%v\n",
			route, st.Count, st.Errors, st.Shed,
			time.Duration(st.P50NS), time.Duration(st.P95NS), time.Duration(st.MaxNS))
	}

	w := io.Writer(stdout)
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			fmt.Fprintln(stderr, "starserve:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := res.BenchJSON(w); err != nil {
		fmt.Fprintln(stderr, "starserve:", err)
		return 1
	}
	if o.out != "" {
		fmt.Fprintf(stdout, "load artifact written to %s\n", o.out)
	}
	return 0
}
