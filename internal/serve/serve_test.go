package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/export"
)

// syncBuffer lets the flight recorder write NDJSON from handler
// goroutines while the test reads it back after the server drains.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

// testServer builds a fully instrumented server (a flight recorder
// streaming NDJSON to the returned buffer) over a small dimension
// range.
func testServer(t *testing.T, cfg Config) (*Server, *obs.FlightRecorder, *syncBuffer) {
	t.Helper()
	reg := obs.NewRegistry()
	logBuf := &syncBuffer{}
	rec := obs.NewFlightRecorder(reg, 1024, logBuf, obs.LevelDebug)
	cfg.Obs = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec, logBuf
}

func TestTraceRoundTrip(t *testing.T) {
	s, rec, logBuf := testServer(t, Config{MinN: 4, MaxN: 4, PoolSize: 1})
	ts := httptest.NewServer(s.Handler())

	const wantHex = "00000000deadbeef"
	want, err := obs.ParseTraceID(wantHex)
	if err != nil || want == 0 {
		t.Fatalf("ParseTraceID(%q) = %v, %v", wantHex, want, err)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/embed?n=4&fv=2134", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, wantHex)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/embed: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(TraceHeader); got != wantHex {
		t.Fatalf("echoed %s = %q, want %q", TraceHeader, got, wantHex)
	}
	// Close waits for the in-flight handler (and its middleware tail) to
	// finish, so spans and log records are complete below.
	ts.Close()

	// The client trace id must be on the request op's spans — the root
	// serve.op.request span and the engine's phase spans under it.
	var sawRoot, sawPhase bool
	for _, e := range rec.SpanEvents() {
		if e.Trace != want {
			continue
		}
		switch e.Name {
		case "serve.op.request":
			sawRoot = true
		case "core.phase.total":
			sawPhase = true
		}
	}
	if !sawRoot || !sawPhase {
		t.Errorf("spans under trace %s: root=%v phase=%v, want both", wantHex, sawRoot, sawPhase)
	}

	// ... and on the event-log records, both the middleware's
	// serve.request summary and the engine's core.embed narrative.
	recs, err := obs.ReadLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sawServe, sawEmbed bool
	for _, r := range recs {
		if r.Trace != want {
			continue
		}
		switch r.Event {
		case "serve.request":
			sawServe = true
			if r.Fields["route"] != "embed" {
				t.Errorf("serve.request route = %v, want embed", r.Fields["route"])
			}
		case "core.embed":
			sawEmbed = true
		}
	}
	if !sawServe || !sawEmbed {
		t.Errorf("records under trace %s: serve.request=%v core.embed=%v, want both", wantHex, sawServe, sawEmbed)
	}
}

func TestFreshTraceWhenHeaderAbsentOrMalformed(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4, PoolSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, hdr := range []string{"", "not-hex!"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/embed?n=4", nil)
		if hdr != "" {
			req.Header.Set(TraceHeader, hdr)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		echo := resp.Header.Get(TraceHeader)
		if id, err := obs.ParseTraceID(echo); err != nil || id == 0 {
			t.Errorf("header %q: echoed trace %q is not a fresh id (%v, %v)", hdr, echo, id, err)
		}
	}
}

func TestEmbedAndRepairHandlers(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 5, MaxN: 5, PoolSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string, wantCode int) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: %d, want %d: %s", path, resp.StatusCode, wantCode, body)
		}
		return body
	}

	var em embedResponse
	if err := json.Unmarshal(get("/embed?n=5&fv=21345", http.StatusOK), &em); err != nil {
		t.Fatal(err)
	}
	if em.N != 5 || em.VertexFaults != 1 || em.Length < em.Guarantee || !em.Guaranteed {
		t.Fatalf("embed response: %+v", em)
	}

	var rp embedResponse
	if err := json.Unmarshal(get("/repair?n=5&fv=21345&v=31245", http.StatusOK), &rp); err != nil {
		t.Fatal(err)
	}
	if rp.VertexFaults != 2 || rp.Repair == "" || rp.OldLength == 0 {
		t.Fatalf("repair response: %+v", rp)
	}
	if rp.Repair == "splice" && rp.Length != rp.OldLength-2 {
		t.Fatalf("splice shrank %d -> %d, want exactly 2 shorter", rp.OldLength, rp.Length)
	}

	ring := get("/ring?n=5&fv=21345", http.StatusOK)
	lines := strings.Count(strings.TrimSpace(string(ring)), "\n") + 1
	if lines != em.Length {
		t.Fatalf("/ring returned %d vertices, /embed reported length %d", lines, em.Length)
	}

	// Error mapping: bad syntax and unserved dimensions are 400s, as is
	// a fault set beyond the budget without best_effort.
	get("/embed?n=bogus", http.StatusBadRequest)
	get("/embed?n=7", http.StatusBadRequest)
	get("/repair?n=5&fv=21345", http.StatusBadRequest) // missing v
	get("/embed?n=5&fv=21345,31245,41235", http.StatusBadRequest)
	get("/embed?n=5&fv=21345,31245,41235&best_effort=1", http.StatusOK)

	// Every metric the handlers, the pools and the embedder declared
	// shares the registry's one namespace without a clash.
	if errs := s.reg.VecErrors(); len(errs) != 0 {
		t.Errorf("registry errors after traffic: %v", errs)
	}
}

func TestInflightShed(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4, MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the admission slot synthetically; the next request must be
	// shed before it touches a pool.
	s.inflight.Add(1)
	resp, err := ts.Client().Get(ts.URL + "/embed?n=4")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.inflight.Add(-1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded /embed: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get(TraceHeader) == "" {
		t.Error("shed response lost the trace echo")
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("serve.shed = %d, want 1", got)
	}
	// The shed request still lands in the RED tables, under the
	// catch-all n=0 slot.
	if got := s.red.requests[routeEmbed][codeIndex(429)][0].Value(); got != 1 {
		t.Errorf("serve.requests{route=embed,code=429,n=0} = %d, want 1", got)
	}
}

func TestQueueShed(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4, PoolSize: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := s.pools[4]
	if !p.acquire() {
		t.Fatal("test could not take the only slot")
	}

	// First request queues behind the borrowed engine...
	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/embed?n=4")
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	for p.queued.Load() == 0 {
		runtime.Gosched()
	}

	// ... so the second exceeds MaxQueue and sheds.
	resp, err := ts.Client().Get(ts.URL + "/embed?n=4")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued-out /embed: %d, want 429", resp.StatusCode)
	}

	p.release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued /embed finished with %d, want 200", code)
	}
}

// stalledWriter is a ResponseWriter whose Write blocks until unblock is
// closed, like a client that stopped reading; writing closes at the
// first Write.
type stalledWriter struct {
	header           http.Header
	writing, unblock chan struct{}
	once             sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.unblock
	return len(p), nil
}

// A /ring client that stops reading must not hold the dimension's only
// pool slot: the stream runs after the slot is released.
func TestStalledRingReaderFreesPool(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 5, MaxN: 5, PoolSize: 1})
	w := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), unblock: make(chan struct{})}
	ringDone := make(chan struct{})
	go func() {
		defer close(ringDone)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/ring?n=5", nil))
	}()
	t.Cleanup(func() {
		close(w.unblock)
		<-ringDone
	})
	select {
	case <-w.writing:
	case <-time.After(5 * time.Second):
		t.Fatal("/ring never started streaming")
	}

	embed := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/embed?n=5", nil))
		embed <- rec.Code
	}()
	select {
	case code := <-embed:
		if code != http.StatusOK {
			t.Fatalf("/embed beside a stalled /ring = %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/embed got no answer within 5 s while a /ring reader stalled")
	}
}

// digestWriter is a ResponseWriter that hashes the body as it arrives
// and keeps none of it, so an allocation count sees the handler's own
// work.
type digestWriter struct {
	header http.Header
	code   int
	body   hash.Hash
	bytes  int
}

func newDigestWriter() *digestWriter {
	return &digestWriter{header: http.Header{}, code: http.StatusOK, body: sha256.New()}
}

func (w *digestWriter) Header() http.Header  { return w.header }
func (w *digestWriter) WriteHeader(code int) { w.code = code }
func (w *digestWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return w.body.Write(p)
}

// /ring encodes its n!-2|Fv| vertices into one reused buffer, so it
// allocates about what /embed does at the same n, not once per vertex.
func TestRingAllocsMatchEmbed(t *testing.T) {
	for _, tc := range []struct {
		n  int
		fv string
	}{{6, "213456"}, {7, "2134567"}, {8, "21345678"}} {
		s, _, _ := testServer(t, Config{MinN: tc.n, MaxN: tc.n, PoolSize: 1})
		h := s.Handler()
		allocs := func(route string) float64 {
			path := fmt.Sprintf("/%s?n=%d&fv=%s", route, tc.n, tc.fv)
			w := newDigestWriter()
			a := testing.AllocsPerRun(5, func() {
				w.bytes = 0
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			})
			if w.code != http.StatusOK || w.bytes == 0 {
				t.Fatalf("GET %s: status %d, %d body bytes", path, w.code, w.bytes)
			}
			return a
		}
		embed, ring := allocs("embed"), allocs("ring")
		t.Logf("n=%d: /ring %.0f allocs, /embed %.0f", tc.n, ring, embed)
		if ring > embed+16 {
			t.Errorf("n=%d: /ring allocates %.0f, /embed %.0f; want at most 16 more", tc.n, ring, embed)
		}
	}
}

// At n=10 the symbols run 1..9 then a: /ring's body must be the plan's
// cursor rendered by StringN, one vertex and a newline each, byte for
// byte.
func TestRingBodyMatchesStringN(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 3.6M vertices")
	}
	const n, fv = 10, "213456789a"
	s, _, _ := testServer(t, Config{MinN: n, MaxN: n, PoolSize: 1})
	got := newDigestWriter()
	s.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/ring?n=10&fv="+fv, nil))
	if got.code != http.StatusOK {
		t.Fatalf("/ring?n=%d = %d", n, got.code)
	}

	fs, err := faults.FromStrings(n, fv)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.pool(n).eng.Embed(fs)
	if err != nil {
		t.Fatal(err)
	}
	want := newDigestWriter()
	c := plan.Cursor()
	for v, ok := c.Next(); ok; v, ok = c.Next() {
		want.Write([]byte(v.StringN(n) + "\n"))
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got.bytes != want.bytes || !bytes.Equal(got.body.Sum(nil), want.body.Sum(nil)) {
		t.Fatalf("/ring body: %d bytes, sha256 %x; StringN lines: %d bytes, sha256 %x",
			got.bytes, got.body.Sum(nil), want.bytes, want.body.Sum(nil))
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4, PoolSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d", got)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("idle /readyz = %d", got)
	}

	s.warming.Set(1)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("warming /readyz = %d, want 503", got)
	}
	s.warming.Set(0)

	s.pools[4].acquire()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("saturated /readyz = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("saturated /healthz = %d, want 200 (still alive)", got)
	}
	s.pools[4].release()
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("recovered /readyz = %d", got)
	}
}

func TestChaosFlightAutoDump(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4, Chaos: true})
	dir := filepath.Join(t.TempDir(), "flight")
	f := s.Registry().Flight()
	f.SetAutoDump(dir, export.FlightBundleWriter(f))
	ts := httptest.NewServer(s.Handler())

	resp, err := ts.Client().Get(ts.URL + "/chaos?anything=ignored")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/chaos = %d, want 500", resp.StatusCode)
	}
	trace := resp.Header.Get(TraceHeader)
	ts.Close()

	if got := s.Registry().Counter("obs.flight.errors").Value(); got != 1 {
		t.Errorf("obs.flight.errors = %d, want 1", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "flight-events.ndjson"))
	if err != nil {
		t.Fatalf("auto-dumped bundle missing: %v", err)
	}
	for _, want := range []string{"obs.flight.error", "serve.chaos", trace} {
		if !strings.Contains(string(data), want) {
			t.Errorf("flight-events.ndjson missing %q", want)
		}
	}
	// The RED error family saw the 5xx too.
	if got := s.red.errors[routeChaos][codeIndex(500)].Value(); got != 1 {
		t.Errorf("serve.errors{route=chaos,code=500} = %d, want 1", got)
	}
}

func TestChaosRouteAbsentByDefault(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/chaos")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/chaos without Config.Chaos = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsEndpointExposesLabeledFamilies(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4, PoolSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/embed?n=4")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := export.ParseOpenMetrics(scrape); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		`serve_requests_total{code="200",n="4",route="embed"} 1`,
		`serve_latency{quantile=`,
		`serve_inflight 0`,
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestWarm(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 3, MaxN: 4, PoolSize: 1})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if s.warming.Value() != 0 {
		t.Error("warming gauge stuck after Warm")
	}
}

// The server starserve runs bounds header reads, so a client that
// never finishes its headers cannot hold a connection forever.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	s, _, _ := testServer(t, Config{MinN: 4, MaxN: 4, PoolSize: 1})
	srv := s.HTTPServer()
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.Handler != s.Handler() {
		t.Error("HTTPServer does not serve the service handler")
	}
}
