package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perm"
)

// LoadConfig drives RunLoad, the built-in fault-churn load generator:
// each worker replays the lifecycle of one degrading S_n instance —
// embed fresh, then report one random new vertex fault per /repair
// until the paper's n-3 budget is exhausted, then reset — with
// periodic /ring materializations (and, for overload drills, /chaos
// faults) mixed in.
type LoadConfig struct {
	// Target is the server's base URL ("http://127.0.0.1:8080"),
	// required.
	Target string
	// N is the churned dimension (default 6).
	N int
	// Requests is the total request count across workers (default 200).
	Requests int
	// Concurrency is the worker count (default 4).
	Concurrency int
	// Seed makes the churn sequence reproducible (default 1).
	Seed int64
	// RingEvery makes every k-th request per worker a /ring full
	// materialization (0 = never).
	RingEvery int
	// ChaosEvery makes every k-th request per worker a /chaos injected
	// failure (0 = never); the server must run with Config.Chaos.
	ChaosEvery int
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Clock overrides the latency clock (default obs.Wall).
	Clock obs.Clock
}

func (c *LoadConfig) setDefaults() error {
	if c.Target == "" {
		return fmt.Errorf("serve: load: Target is required")
	}
	if c.N == 0 {
		c.N = 6
	}
	if c.N < 3 || c.N > perm.MaxN {
		return fmt.Errorf("serve: load: n=%d out of range [3,%d]", c.N, perm.MaxN)
	}
	if c.Requests == 0 {
		c.Requests = 200
	}
	if c.Concurrency < 1 {
		c.Concurrency = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Clock == nil {
		c.Clock = obs.Wall
	}
	return nil
}

// RouteLoadStats is one route's client-side view of the run.
type RouteLoadStats struct {
	// Count is every request sent to the route, shed ones included.
	Count int64 `json:"count"`
	// Errors counts non-2xx responses other than 429, plus transport
	// failures.
	Errors int64 `json:"errors"`
	// Shed counts 429 load-shed responses.
	Shed int64 `json:"shed"`
	// P50NS/P95NS/MaxNS summarize the client-observed latency.
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	MaxNS int64 `json:"max_ns"`
}

// LoadResult is the run summary RunLoad returns and BenchJSON encodes.
type LoadResult struct {
	Target      string                     `json:"target"`
	N           int                        `json:"n"`
	Requests    int                        `json:"requests"`
	Concurrency int                        `json:"concurrency"`
	Seed        int64                      `json:"seed"`
	Routes      map[string]*RouteLoadStats `json:"routes"`
}

// BenchJSON writes the result as one {"serve_load": ...} JSON document,
// the summary starserve -load -out writes.
func (r *LoadResult) BenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]*LoadResult{"serve_load": r})
}

// routeTally accumulates one route's stats across workers: atomics for
// the counts, a zero-value obs.Histogram for the latency distribution.
type routeTally struct {
	count, errors, shed atomic.Int64
	lat                 obs.Histogram
}

func (t *routeTally) stats() *RouteLoadStats {
	hs := t.lat.Stats()
	return &RouteLoadStats{
		Count: t.count.Load(), Errors: t.errors.Load(), Shed: t.shed.Load(),
		P50NS: hs.P50NS, P95NS: hs.P95NS, MaxNS: hs.MaxNS,
	}
}

// RunLoad drives the fault-churn workload against cfg.Target and
// returns the per-route latency/error/shed tallies. Every request
// carries its own X-Star-Trace id (derived from the seed), so a slow
// or failed request spotted in the result can be reconstructed from
// the server's flight bundle by that id. The first transport-level
// error aborts the run; HTTP-level errors (including shed 429s) are
// tallied and the run continues.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	base := strings.TrimSuffix(cfg.Target, "/")

	tallies := map[string]*routeTally{}
	for _, route := range routeNames {
		tallies[route] = &routeTally{}
	}

	var (
		wg       sync.WaitGroup
		firstErr atomic.Value
	)
	per := cfg.Requests / cfg.Concurrency
	extra := cfg.Requests % cfg.Concurrency
	for w := 0; w < cfg.Concurrency; w++ {
		quota := per
		if w < extra {
			quota++
		}
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func(worker, quota int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)))
			churn := newChurn(cfg.N, rng)
			for i := 0; i < quota; i++ {
				route, target := churn.next(base, i, cfg.RingEvery, cfg.ChaosEvery)
				if err := loadRequest(&cfg, tallies[route], rng, target); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w, quota)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}

	res := &LoadResult{
		Target: cfg.Target, N: cfg.N, Requests: cfg.Requests,
		Concurrency: cfg.Concurrency, Seed: cfg.Seed,
		Routes: map[string]*RouteLoadStats{},
	}
	for route, t := range tallies {
		if t.count.Load() > 0 {
			res.Routes[route] = t.stats()
		}
	}
	return res, nil
}

// loadRequest issues one GET, tallies it, and returns only transport
// errors.
func loadRequest(cfg *LoadConfig, tally *routeTally, rng *rand.Rand, target string) error {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	trace := obs.TraceID(rng.Uint64() | 1)
	req.Header.Set(TraceHeader, trace.String())

	tally.count.Add(1)
	start := cfg.Clock.Now()
	resp, err := cfg.Client.Do(req)
	if err != nil {
		tally.errors.Add(1)
		return fmt.Errorf("serve: load: %s: %w", target, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	tally.lat.ObserveTrace(obs.Since(cfg.Clock, start), trace)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		tally.shed.Add(1)
	case resp.StatusCode >= 400:
		tally.errors.Add(1)
	}
	return nil
}

// churn is one worker's degrading instance: the accumulated fault list
// it reports to the server query by query.
type churn struct {
	n   int
	rng *rand.Rand
	fv  []string
}

func newChurn(n int, rng *rand.Rand) *churn { return &churn{n: n, rng: rng} }

// next picks the i-th request: /chaos and /ring on their configured
// cadence, otherwise the embed-repair-...-repair-reset fault lifecycle.
// It returns the route name (a tally key) and the full URL.
func (c *churn) next(base string, i, ringEvery, chaosEvery int) (route, target string) {
	q := url.Values{}
	q.Set("n", fmt.Sprint(c.n))
	switch {
	case chaosEvery > 0 && i%chaosEvery == chaosEvery-1:
		return "chaos", base + "/chaos?" + q.Encode()
	case ringEvery > 0 && i%ringEvery == ringEvery-1:
		c.setFaults(q)
		return "ring", base + "/ring?" + q.Encode()
	case len(c.fv) >= faults.MaxTolerated(c.n):
		c.fv = c.fv[:0]
		return "embed", base + "/embed?" + q.Encode()
	default:
		v := c.freshFault()
		c.setFaults(q)
		q.Set("v", v)
		c.fv = append(c.fv, v)
		return "repair", base + "/repair?" + q.Encode()
	}
}

func (c *churn) setFaults(q url.Values) {
	if len(c.fv) > 0 {
		q.Set("fv", strings.Join(c.fv, ","))
	}
}

// freshFault draws a uniformly random vertex not already in the fault
// list.
func (c *churn) freshFault() string {
	total := perm.Factorial(c.n)
	for {
		v := perm.Unrank(c.n, c.rng.Intn(total)).String()
		fresh := true
		for _, f := range c.fv {
			if f == v {
				fresh = false
				break
			}
		}
		if fresh {
			return v
		}
	}
}
