package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/serve"
)

// serve_n7: starserve under the fault-churn request mix. The untraced
// run sends it as a closed loop, one request in flight, so each
// request's process CPU time is its own, client and server together.
// The traced run sends it as an open loop at serveRate, which is what
// the queueing, generator-lag and transport layers need.
const (
	serveN         = 7
	serveRate      = 100.0 // requests per second, Poisson, of the traced open loop
	serveConns     = 2     // keep-alive connections = open-loop client workers
	servePool      = 2     // engines in the server's S_7 pool
	serveRingEvery = 5     // every 5th request is a /ring
	serveSetups    = 9
	serveTailQ     = 0.95 // the heavier /ring requests are a fifth of the mix
	serveLimit     = 25 * time.Millisecond
	serveReplay    = 600 // requests re-driven in-process by a traced run

	serveWhy = "closed loop, 1 keep-alive conn to in-process starserve (S_7, pool 2): /repair fault churn, /embed on reset, /ring every 5th; traced run: open loop, 100 req/s"
)

// The routes the request mix uses.
const (
	routeEmbed = iota
	routeRepair
	routeRing
)

var routePaths = [...]string{routeEmbed: "/embed", routeRepair: "/repair", routeRing: "/ring"}

// serveReq is one pre-generated request.
type serveReq struct {
	due   time.Duration // offset from the loop start
	route int
	path  string // path and query
	nv    int    // vertex faults the answer must account for
}

// genServe draws the request sequence of one window from seed: Poisson
// arrivals at serveRate, and the fault-churn lifecycle of
// serve.RunLoad — each /repair reports one fresh random fault on top
// of the accumulated ones, the list resets with an /embed once the
// n-3 budget is used, and every serveRingEvery-th request fetches the
// current ring.
func genServe(seed int64, window time.Duration) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	total := perm.Factorial(serveN)
	budget := faults.MaxTolerated(serveN)
	var fv []string
	var out []serveReq
	var at time.Duration
	for i := 0; ; i++ {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at >= window {
			return out
		}
		q := url.Values{}
		q.Set("n", strconv.Itoa(serveN))
		r := serveReq{due: at}
		switch {
		case i%serveRingEvery == serveRingEvery-1:
			r.route, r.nv = routeRing, len(fv)
		case len(fv) >= budget:
			fv = fv[:0]
			r.route = routeEmbed
		default:
			v := freshVertex(rng, total, fv)
			q.Set("v", v)
			r.route, r.nv = routeRepair, len(fv)+1
		}
		if len(fv) > 0 {
			q.Set("fv", strings.Join(fv, ","))
		}
		if r.route == routeRepair {
			fv = append(fv, q.Get("v"))
		}
		r.path = routePaths[r.route] + "?" + q.Encode()
		out = append(out, r)
	}
}

// freshVertex draws a uniformly random vertex of S_7 not in taken.
func freshVertex(rng *rand.Rand, total int, taken []string) string {
	for {
		v := perm.Unrank(serveN, rng.Intn(total)).String()
		fresh := true
		for _, f := range taken {
			fresh = fresh && f != v
		}
		if fresh {
			return v
		}
	}
}

// serveEnv is the set-up state: a warmed server on a loopback port,
// a client holding two open keep-alive connections to it, and the
// request sequence.
type serveEnv struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	base      string
	transport *http.Transport
	client    *http.Client
	reqs      []serveReq
	status    []int // per request of the last fire
	bufs      [serveConns][]byte
}

func serverConfig() serve.Config {
	return serve.Config{MinN: serveN, MaxN: serveN, PoolSize: servePool, Workers: 1} // see benchProcs
}

func newServeEnv(seed int64, window time.Duration) (*serveEnv, error) {
	srv, err := serve.New(serverConfig())
	if err != nil {
		return nil, err
	}
	if err := srv.Warm(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		transport: &http.Transport{
			Proxy:               nil, // loopback only, whatever the environment says
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
		},
	}
	env.client = &http.Client{Transport: env.transport, Timeout: 30 * time.Second}
	go func() { env.served <- env.hs.Serve(ln) }()
	for i := range env.bufs {
		env.bufs[i] = make([]byte, 32<<10)
	}
	if err := env.openConns(); err != nil {
		env.close()
		return nil, err
	}
	env.reqs = genServe(seed, window)
	return env, nil
}

// openConns opens every keep-alive connection with concurrent health
// probes, so no timed request pays a TCP handshake.
func (env *serveEnv) openConns() error {
	errs := make(chan error, serveConns)
	for i := 0; i < serveConns; i++ {
		go func() {
			resp, err := env.client.Get(env.base + "/healthz")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	var first error
	for i := 0; i < serveConns; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops the server and waits for it to return.
func (env *serveEnv) close() {
	env.transport.CloseIdleConnections()
	_ = env.hs.Close() // the Serve error below is the one that matters
	if err := <-env.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
}

// fire runs reqs as an open loop, their due times shifted by -offset.
func (env *serveEnv) fire(clock obs.Clock, reqs []serveReq, offset time.Duration) ([]shot, time.Time) {
	due := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		due[i] = r.due - offset
	}
	env.status = make([]int, len(reqs))
	return openLoop(clock, time.Sleep, serveConns, due, func(w, i int) error {
		code, err := env.do(env.bufs[w], reqs[i])
		env.status[i] = code
		return err
	})
}

// embedAnswer is the part of the /embed and /repair JSON the benchmark
// checks.
type embedAnswer struct {
	N            int    `json:"n"`
	Length       int    `json:"length"`
	Guaranteed   bool   `json:"guaranteed"`
	VertexFaults int    `json:"vertex_faults"`
	Repair       string `json:"repair"`
	OldLength    int    `json:"old_length"`
}

// do sends one request, reads the whole response and checks it.
func (env *serveEnv) do(buf []byte, r serveReq) (int, error) {
	resp, err := env.client.Get(env.base + r.path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var verr error
	if r.route == routeRing {
		verr = checkRingBody(resp.Body, buf, r.nv)
	} else {
		verr = checkEmbedBody(resp.Body, r)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && verr == nil {
		verr = err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: status %d", r.path, resp.StatusCode)
	}
	if verr != nil {
		return resp.StatusCode, fmt.Errorf("%s: %w", r.path, verr)
	}
	return resp.StatusCode, nil
}

// checkEmbedBody accepts an /embed or /repair answer that carries the
// guarantee for the request's faults and meets it; a splice must have
// shrunk the ring by exactly 2.
func checkEmbedBody(body io.Reader, r serveReq) error {
	var a embedAnswer
	if err := json.NewDecoder(body).Decode(&a); err != nil {
		return err
	}
	switch {
	case a.N != serveN || a.VertexFaults != r.nv:
		return fmt.Errorf("answer for n=%d |Fv|=%d, asked n=%d |Fv|=%d", a.N, a.VertexFaults, serveN, r.nv)
	case !a.Guaranteed:
		return errors.New("answer not guaranteed")
	case a.Length < guarantee(serveN, r.nv):
		return fmt.Errorf("length %d < n!-2|Fv| = %d", a.Length, guarantee(serveN, r.nv))
	case a.Repair == "splice" && a.Length != a.OldLength-2:
		return fmt.Errorf("splice took the ring from %d to %d", a.OldLength, a.Length)
	}
	return nil
}

// checkRingBody accepts a /ring body of one n-symbol vertex per line
// whose line count meets the guarantee for nv faults.
func checkRingBody(body io.Reader, buf []byte, nv int) error {
	lines, size := 0, 0
	for {
		k, err := body.Read(buf)
		lines += bytes.Count(buf[:k], []byte{'\n'})
		size += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	switch {
	case size != lines*(serveN+1):
		return fmt.Errorf("%d bytes for %d lines of %d symbols", size, lines, serveN)
	case lines < guarantee(serveN, nv) || lines > perm.Factorial(serveN):
		return fmt.Errorf("%d ring lines, want n!-2|Fv| = %d..n!", lines, guarantee(serveN, nv))
	}
	return nil
}

// record turns shots into timed events.
func record(r *endToEndRun, t *tally, shots []shot) {
	for _, s := range shots {
		r.event(t, s.latency(), 0, s.err)
	}
}

// closedLoop sends env.reqs in order, each once the previous answer has
// been read, until window has passed; a longer run wraps around.
func (env *serveEnv) closedLoop(o opts, window time.Duration, r *endToEndRun, t *tally) {
	start := o.clock.Now()
	for i := 0; obs.Since(o.clock, start) < window; i++ {
		req := env.reqs[i%len(env.reqs)]
		c0, t0 := o.cpu.Now(), o.clock.Now()
		_, err := env.do(env.bufs[0], req)
		r.event(t, obs.Since(o.clock, t0), obs.Since(o.cpu, c0), err)
	}
}

func serveEndToEnd(o opts, t *tally) (*endToEndRun, error) {
	ref := newReference(o.cpu)
	env, setups, err := timedSetups(o.cpu, cpuZero, ref, serveSetups,
		func() (*serveEnv, error) { return newServeEnv(o.seed, o.seconds) }, (*serveEnv).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	r := &endToEndRun{setups: setups, tailQ: serveTailQ, limit: serveLimit, ref: ref}
	env.closedLoop(o, o.seconds, r, t)
	if r.ops == 0 {
		return nil, errNoOps
	}
	r.heap, err = heapHeld(3, func() (*serve.Server, error) {
		s, err := serve.New(serverConfig())
		if err == nil {
			err = s.Warm()
		}
		return s, err
	})
	return r, err
}

func serveTraced(o opts, t *tally, tr *tracer) (map[string]float64, error) {
	env, err := newServeEnv(o.seed, o.seconds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	half := o.seconds / 2
	split := 0
	for split < len(env.reqs) && env.reqs[split].due < half {
		split++
	}
	var shed, non2xx int
	countCodes := func() {
		for _, c := range env.status {
			if c == http.StatusTooManyRequests {
				shed++
			}
			if c < 200 || c > 299 {
				non2xx++
			}
		}
	}

	ref := &endToEndRun{limit: serveLimit}
	shots, _ := env.fire(o.clock, env.reqs[:split], 0)
	record(ref, t, shots)
	countCodes()

	gc := startGCMeter(o.clock)
	traced := &endToEndRun{limit: serveLimit}
	shots, start := env.fire(o.clock, env.reqs[split:], half)
	gcRate := gc.perSecond()
	record(traced, t, shots)
	countCodes()
	var queue, lag, exchange samples
	for _, s := range shots {
		root := tr.put(lRequest, noParent, start.Add(s.due), start.Add(s.done))
		tr.put(lQueue, root, start.Add(s.due), start.Add(s.sent))
		tr.put(lExchange, root, start.Add(s.sent), start.Add(s.done))
		queue.add(s.queue())
		lag.add(s.lag())
		exchange.add(s.done - s.sent)
	}

	replay := env.reqs[:min(serveReplay, len(env.reqs))]
	if err := env.inProcess(tr, t, replay); err != nil {
		return nil, err
	}
	l := tr.byLayer()
	handlers := l[lHandlerEmbed].sum() + l[lHandlerRepair].sum() + l[lHandlerRing].sum()
	perReq := func(d time.Duration) time.Duration { return d / time.Duration(len(replay)) }
	return map[string]float64{
		"serve.parse_us":          us(l[lParse].quantile(0.5)),
		"serve.engine_ms":         ms(l[lEngine].quantile(0.5)),
		"serve.embed.handler_ms":  ms(l[lHandlerEmbed].quantile(0.5)),
		"serve.repair.handler_ms": ms(l[lHandlerRepair].quantile(0.5)),
		"serve.ring.handler_ms":   ms(l[lHandlerRing].quantile(0.5)),
		"serve.ring_encode_ms":    ms(l[lRingEncode].quantile(0.5)),
		"serve.overhead_ms":       ms(perReq(handlers - l[lEngine].sum() - l[lRingEncode].sum())),
		"serve.transport_ms":      ms(exchange.mean() - perReq(handlers)),
		"client.queue_ms":         ms(queue.quantile(0.99)),
		"gen.lag_ms":              ms(lag.quantile(0.99)),
		"serve.shed":              float64(shed),
		"serve.non2xx":            float64(non2xx),
		"runtime.gc_cycles_per_s": gcRate,
		"trace.overhead_share":    overheadShare(traced.lat.mean(), ref.lat.mean()),
	}, nil
}

// inProcess re-drives reqs without the network: once through
// Server.Handler() (the handler span), and once as the bare library
// calls the handler makes — serve.ParseRequest, then Embed (+ Repair)
// on a private engine, then for /ring the text encoding of the cursor.
func (env *serveEnv) inProcess(tr *tracer, t *tally, reqs []serveReq) error {
	eng, err := core.NewEmbedder(serveN, core.Config{Workers: 1})
	if err != nil {
		return err
	}
	handlerLayer := [...]layer{routeEmbed: lHandlerEmbed, routeRepair: lHandlerRepair, routeRing: lHandlerRing}
	h := env.srv.Handler()
	var text bytes.Buffer
	for _, r := range reqs {
		root := tr.begin(lCycle, noParent)
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodGet, r.path, nil)
		sp := tr.begin(handlerLayer[r.route], root)
		h.ServeHTTP(rec, hreq)
		tr.end(sp)
		err := error(nil)
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("in-process %s: status %d", r.path, rec.Code)
		}

		sp = tr.begin(lParse, root)
		req, perr := serve.ParseRequest(hreq.URL.Query())
		tr.end(sp)
		if perr != nil {
			t.note(perr)
			tr.end(root)
			continue
		}
		sp = tr.begin(lEngine, root)
		plan, eerr := eng.Embed(req.Faults)
		if eerr == nil && req.HasV {
			_, eerr = plan.Repair(req.V)
		}
		tr.end(sp)
		if eerr == nil && r.route == routeRing {
			text.Reset()
			c := plan.Cursor()
			sp = tr.begin(lRingEncode, root)
			for v, ok := c.Next(); ok; v, ok = c.Next() {
				fmt.Fprintln(&text, v.StringN(serveN))
			}
			tr.end(sp)
			eerr = c.Err()
		}
		if err == nil {
			err = eerr
		}
		t.note(err)
		tr.end(root)
	}
	return nil
}
