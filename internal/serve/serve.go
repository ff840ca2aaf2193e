package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/perm"
)

// TraceHeader is the request/response header carrying the 16-hex-digit
// trace id. A client that sets it has the whole server-side timeline —
// op spans, log lines, flight-recorder entries — filed under
// its own id (reconstruct with starmon -postmortem); the server always
// echoes the effective id back, minting a fresh one when the header is
// absent or malformed.
const TraceHeader = "X-Star-Trace"

// Config sizes the service.
type Config struct {
	// MinN..MaxN is the range of served dimensions; one engine pool is
	// built per dimension. Defaults: 3..7.
	MinN, MaxN int
	// PoolSize is the number of requests per dimension that embed at
	// once (default 2); more queue for a slot.
	PoolSize int
	// MaxInflight caps concurrently admitted requests across all routes;
	// beyond it requests are shed with 429. <= 0 disables the cap.
	MaxInflight int
	// MaxQueue caps callers queued per pool shard waiting for a slot;
	// beyond it requests are shed with 429. <= 0 disables the cap.
	MaxQueue int
	// BestEffort and VerifyRepairs seed the shared engines' core.Config
	// (a request's best_effort flag can still override per call via
	// Embedder.Reuse).
	BestEffort    bool
	VerifyRepairs bool
	// Workers is ignored: engines replay rings from their skeletons and
	// have no routing pool to size.
	//
	// Deprecated: see core.Config.Workers.
	Workers int
	// Chaos enables the /chaos route, which fails with a deterministic
	// 500 — the overload drill's 5xx source for flight-dump coverage.
	Chaos bool
	// Obs is the service registry; nil gets a fresh private one. Attach
	// the event log and flight recorder to it BEFORE calling New so the
	// middleware's 5xx hook and /debug/flight find them.
	Obs *obs.Registry
}

func (c *Config) setDefaults() {
	if c.MinN == 0 {
		c.MinN = 3
	}
	if c.MaxN == 0 {
		c.MaxN = 7
	}
	if c.PoolSize == 0 {
		c.PoolSize = 2
	}
}

// Server is the embedding service: the HTTP mux, the per-dimension
// engine pools, and the request-scoped observability pipeline (see the
// package comment). Build one with New, expose Handler on any
// http.Server, and optionally Warm it before accepting traffic.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	red   *red
	pools []*pool // indexed by dimension; nil outside [MinN, MaxN]
	mux   *http.ServeMux

	// inflight is the admission count the middleware checks; inflightG
	// mirrors it into the serve.inflight gauge for the exposition.
	inflight  atomic.Int64
	inflightG *obs.Gauge
	warming   *obs.Gauge
	shed      *obs.Counter
	errChaos  error
	errShed   error
	errNoPool error
}

// New validates cfg, builds the pools and the pre-resolved metric
// tables, and wires the mux. It does not warm the pools; call Warm (or
// let the first requests pay for the first embeds).
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.MinN < 3 || cfg.MaxN > perm.MaxN || cfg.MinN > cfg.MaxN {
		return nil, fmt.Errorf("serve: dimension range [%d,%d] outside [3,%d]", cfg.MinN, cfg.MaxN, perm.MaxN)
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Obs,
		red:       newRED(cfg.Obs, cfg.MinN, cfg.MaxN),
		pools:     make([]*pool, cfg.MaxN+1),
		shed:      cfg.Obs.Counter("serve.shed"),
		errChaos:  errors.New("serve: chaos: injected failure"),
		errShed:   errors.New("serve: overloaded"),
		errNoPool: errors.New("serve: dimension not served"),
	}
	s.inflightG = cfg.Obs.Gauge("serve.inflight")
	s.warming = cfg.Obs.Gauge("serve.warming")
	depth := s.reg.GaugeVec("serve.queue_depth", "n")
	ecfg := core.Config{
		BestEffort:    cfg.BestEffort,
		VerifyRepairs: cfg.VerifyRepairs,
		Obs:           cfg.Obs,
	}
	for n := cfg.MinN; n <= cfg.MaxN; n++ {
		p, err := newPool(n, cfg.PoolSize, cfg.MaxQueue, ecfg, depth.With("n", strconv.Itoa(n)))
		if err != nil {
			return nil, err
		}
		s.pools[n] = p
	}

	s.mux = http.NewServeMux()
	s.mux.Handle("/embed", s.wrap(routeEmbed, s.handleEmbed))
	s.mux.Handle("/repair", s.wrap(routeRepair, s.handleRepair))
	s.mux.Handle("/ring", s.wrap(routeRing, s.handleRing))
	if cfg.Chaos {
		s.mux.Handle("/chaos", s.wrap(routeChaos, s.handleChaos))
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", export.MetricsHandler(s.reg))
	if f := s.reg.Flight(); f != nil {
		s.mux.Handle("/debug/flight", export.FlightHandler(f))
	}
	return s, nil
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a connection that never finishes them cannot
// hold a goroutine and a file descriptor forever.
const readHeaderTimeout = 10 * time.Second

// HTTPServer returns an http.Server for Handler with header reads
// bounded by readHeaderTimeout; starserve builds both its serving loop
// and its self-hosted -load target through it.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
}

// Registry returns the service registry (for /metrics co-hosting and
// tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Warm runs one fault-free embedding per dimension (Embedder.Warm).
// /readyz reports 503 until it returns.
func (s *Server) Warm() error {
	s.warming.Set(1)
	defer s.warming.Set(0)
	for n := s.cfg.MinN; n <= s.cfg.MaxN; n++ {
		if err := s.pools[n].eng.Warm(); err != nil {
			return fmt.Errorf("serve: warm n=%d: %w", n, err)
		}
	}
	return nil
}

// pool returns the shard for dimension n, nil when n is outside the
// served range.
func (s *Server) pool(n int) *pool {
	if n < s.cfg.MinN || n > s.cfg.MaxN {
		return nil
	}
	return s.pools[n]
}

// nIndex maps a request dimension onto its requests-table slot; out of
// range (including the pre-parse 0) lands in the catch-all slot 0.
func (s *Server) nIndex(n int) int {
	if n < s.cfg.MinN || n > s.cfg.MaxN {
		return 0
	}
	return n
}

// handlerFunc is one route's logic: it writes the response and reports
// the dimension it served (0 when rejected before parsing), the status
// code it wrote, and the error behind a non-2xx (recorded to the event
// log, and to the flight recorder on 5xx).
type handlerFunc func(w http.ResponseWriter, r *http.Request, op obs.Span) (n, code int, err error)

// wrap is the observability middleware. Per request it:
//
//  1. admits or sheds (429 once inflight exceeds Config.MaxInflight),
//  2. opens a serve.op.request op continuing the X-Star-Trace trace id
//     (fresh when absent/malformed) and echoes the id in the response,
//  3. runs the route handler under that op,
//  4. logs the structured serve.request event,
//  5. notes any 5xx to the flight recorder (auto-dumping when armed),
//  6. feeds the pre-resolved RED families through red.observe, with
//     the trace id riding the latency exemplar.
func (s *Server) wrap(ri int, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := s.inflight.Add(1)
		s.inflightG.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.inflightG.Add(-1)
		}()

		// A malformed header is not worth a 400: the request is still
		// serviceable, it just gets a fresh trace (and learns the id from
		// the echo).
		trace, _ := obs.ParseTraceID(r.Header.Get(TraceHeader))
		op := s.reg.StartOpTrace("serve.op.request", trace)
		w.Header().Set(TraceHeader, op.Trace().String())

		var n, code int
		var err error
		if s.cfg.MaxInflight > 0 && cur > int64(s.cfg.MaxInflight) {
			code, err = s.shedRequest(w)
		} else {
			n, code, err = h(w, r, op)
		}

		d := op.End()
		if op.Enabled(obs.LevelInfo) {
			op.Log(obs.LevelInfo, "serve.request",
				obs.F("route", routeNames[ri]), obs.F("code", code),
				obs.F("n", n), obs.F("dur_ns", d.Nanoseconds()))
		}
		if code >= 500 {
			// After End and the event record, so an auto-dumped bundle
			// already contains this request's full timeline.
			op.NoteError("serve."+routeNames[ri], err)
		}
		s.red.observe(ri, codeIndex(code), s.nIndex(n), code, d, op.Trace())
	})
}

// shedRequest writes the 429 load-shed response.
func (s *Server) shedRequest(w http.ResponseWriter) (int, error) {
	s.shed.Inc()
	http.Error(w, s.errShed.Error(), http.StatusTooManyRequests)
	return http.StatusTooManyRequests, s.errShed
}

// statusFor maps an engine error onto a response code: a fault set
// beyond the paper's budget is the caller's problem (400), anything
// else is ours (500).
func statusFor(err error) int {
	if errors.Is(err, core.ErrBudget) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// session runs fn on a plan for req, embedding req.Faults under one of
// the dimension's pool slots — the shared prologue of every API route.
// It handles the unserved-dimension 400, the queue-shed 429, and the
// embed-error mapping; fn only sees a healthy plan, and runs before
// the slot is released.
func (s *Server) session(w http.ResponseWriter, req *Request, op obs.Span,
	fn func(plan *core.Plan) (int, error)) (int, int, error) {
	p := s.pool(req.N)
	if p == nil {
		err := fmt.Errorf("%w: n=%d outside [%d,%d]", s.errNoPool, req.N, s.cfg.MinN, s.cfg.MaxN)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return req.N, http.StatusBadRequest, err
	}
	if !p.acquire() {
		code, err := s.shedRequest(w)
		return req.N, code, err
	}
	defer p.release()
	eng := p.eng
	if req.BestEffort != eng.Config().BestEffort {
		cfg := eng.Config()
		cfg.BestEffort = req.BestEffort
		eng = eng.Reuse(cfg)
	}
	plan, err := eng.EmbedOp(op, req.Faults)
	if err != nil {
		code := statusFor(err)
		http.Error(w, err.Error(), code)
		return req.N, code, err
	}
	code, err := fn(plan)
	return req.N, code, err
}

// embedResponse is the JSON body of /embed and /repair.
type embedResponse struct {
	N            int    `json:"n"`
	Length       int    `json:"length"`
	Guarantee    int    `json:"guarantee"`
	Guaranteed   bool   `json:"guaranteed"`
	VertexFaults int    `json:"vertex_faults"`
	EdgeFaults   int    `json:"edge_faults"`
	Blocks       int    `json:"blocks"`
	Repair       string `json:"repair,omitempty"`
	OldLength    int    `json:"old_length,omitempty"`
	Rerouted     int    `json:"blocks_rerouted,omitempty"`
}

func writeJSON(w http.ResponseWriter, v interface{}) (int, error) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a 5xx status (the 200 header is out), but the
		// middleware still files the failure.
		return http.StatusOK, err
	}
	return http.StatusOK, nil
}

// handleEmbed answers GET /embed?n=6&fv=...&fe=...[&best_effort=1]
// with the embedding summary.
func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request, op obs.Span) (int, int, error) {
	req, err := ParseRequest(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, http.StatusBadRequest, err
	}
	return s.session(w, req, op, func(plan *core.Plan) (int, error) {
		res := plan.Result()
		return writeJSON(w, embedResponse{
			N: req.N, Length: res.Len(),
			Guarantee: res.Guarantee, Guaranteed: res.Guaranteed,
			VertexFaults: res.VertexFaults, EdgeFaults: res.EdgeFaults,
			Blocks: res.Blocks,
		})
	})
}

// handleRepair answers GET /repair?n=6&fv=...&v=NEWFAULT: it embeds
// around the prior faults, folds the new one in through the plan's
// repair path, and reports what the repair did.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request, op obs.Span) (int, int, error) {
	req, err := ParseRequest(r.URL.Query())
	if err == nil && !req.HasV {
		err = errors.New("serve: /repair needs v=<vertex> (the new fault)")
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, http.StatusBadRequest, err
	}
	return s.session(w, req, op, func(plan *core.Plan) (int, error) {
		old := plan.RingLen()
		rep, err := plan.RepairOp(op, req.V)
		if err != nil {
			code := statusFor(err)
			http.Error(w, err.Error(), code)
			return code, err
		}
		res := plan.Result()
		return writeJSON(w, embedResponse{
			N: req.N, Length: res.Len(),
			Guarantee: res.Guarantee, Guaranteed: res.Guaranteed,
			VertexFaults: res.VertexFaults, EdgeFaults: res.EdgeFaults,
			Blocks: res.Blocks,
			Repair: rep.Outcome.String(), OldLength: old, Rerouted: rep.BlocksRerouted,
		})
	})
}

// ringBatchBytes is how much of a /ring body handleRing gathers before
// each write: one buffer per request, so a vertex costs an append, not
// a formatted write.
const ringBatchBytes = 4 << 10

// handleRing answers GET /ring?n=6&fv=... with the full ring, one
// vertex per line in permutation notation, streamed through the
// plan's cursor in ringBatchBytes writes. The stream runs after
// session releases its pool slot, so a slow reader holds only its own
// plan, never the shard.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request, op obs.Span) (int, int, error) {
	req, err := ParseRequest(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, http.StatusBadRequest, err
	}
	var plan *core.Plan
	n, code, err := s.session(w, req, op, func(p *core.Plan) (int, error) {
		plan = p
		return http.StatusOK, nil
	})
	if plan == nil {
		return n, code, err
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	buf := make([]byte, 0, ringBatchBytes+req.N+1)
	c := plan.Cursor()
	for {
		v, ok := c.Next()
		if !ok {
			break
		}
		buf = append(v.AppendN(buf, req.N), '\n')
		if len(buf) >= ringBatchBytes {
			if _, err := w.Write(buf); err != nil {
				return n, http.StatusOK, err // client went away mid-stream
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return n, http.StatusOK, err
	}
	return n, http.StatusOK, c.Err()
}

// handleChaos (only routed under Config.Chaos) fails deterministically
// with a 500, exercising the flight-recorder auto-dump path end to end
// — the overload drill's 5xx source.
func (s *Server) handleChaos(w http.ResponseWriter, _ *http.Request, _ obs.Span) (int, int, error) {
	http.Error(w, s.errChaos.Error(), http.StatusInternalServerError)
	return 0, http.StatusInternalServerError, s.errChaos
}

// healthState is the JSON body of /healthz and /readyz.
type healthState struct {
	Ready       bool         `json:"ready"`
	Warming     bool         `json:"warming"`
	Inflight    int64        `json:"inflight"`
	MaxInflight int          `json:"max_inflight"`
	Pools       []poolHealth `json:"pools"`
}

type poolHealth struct {
	N         int  `json:"n"`
	Size      int  `json:"size"`
	Saturated bool `json:"saturated"`
}

func (s *Server) health() healthState {
	h := healthState{
		Warming:     s.warming.Value() != 0,
		Inflight:    s.inflight.Load(),
		MaxInflight: s.cfg.MaxInflight,
	}
	saturated := true
	for n := s.cfg.MinN; n <= s.cfg.MaxN; n++ {
		p := s.pools[n]
		sat := p.saturated()
		saturated = saturated && sat
		h.Pools = append(h.Pools, poolHealth{N: n, Size: cap(p.slots), Saturated: sat})
	}
	overAdmission := s.cfg.MaxInflight > 0 && h.Inflight >= int64(s.cfg.MaxInflight)
	h.Ready = !h.Warming && !saturated && !overAdmission
	return h
}

// handleHealthz is liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_, _ = writeJSON(w, s.health())
}

// handleReadyz is readiness: 503 while warming, while every pool is
// saturated, or while the admission limit is reached — the signals a
// balancer should drain on.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}
