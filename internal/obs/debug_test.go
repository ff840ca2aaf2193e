package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDebugServerAndExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("test.count").Add(9)
	r.Histogram("test.phase").Observe(2 * time.Millisecond)
	r.PublishExpvar("obs-debug-test")
	// Re-publishing the same name must be a no-op, not a panic.
	r.PublishExpvar("obs-debug-test")
	if expvar.Get("obs-debug-test") == nil {
		t.Fatal("expvar not published")
	}

	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(vars["obs-debug-test"], &snap); err != nil {
		t.Fatalf("published registry not in /debug/vars: %v", err)
	}
	if snap.Counters["test.count"] != 9 {
		t.Errorf("snapshot over expvar lost the counter: %+v", snap)
	}
	if snap.Histograms["test.phase"].Count != 1 {
		t.Errorf("snapshot over expvar lost the histogram: %+v", snap)
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	index, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(index), "goroutine") {
		t.Fatalf("/debug/pprof/ status %d:\n%s", resp.StatusCode, index)
	}
}

func TestDebugServerBadAddr(t *testing.T) {
	if _, err := StartDebugServer("256.0.0.1:bad"); err == nil {
		t.Fatal("nonsense address accepted")
	}
}

// TestDebugServerSequential is the lifecycle regression test: Close
// must release the port so a second server can bind the same address —
// the pre-Close API leaked every listener for the process lifetime.
func TestDebugServerSequential(t *testing.T) {
	first, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := first.Addr()
	if err := first.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	second, err := StartDebugServer(addr)
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	defer second.Close()

	resp, err := http.Get("http://" + second.Addr() + "/debug/vars")
	if err != nil {
		t.Fatalf("second server not serving: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars on the second server: status %d", resp.StatusCode)
	}
}

// TestDebugServerHandle checks that extra handlers can attach to a
// running server (the hook the /metrics exposition uses).
func TestDebugServerHandle(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/extra", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "extra ok")
	}))
	resp, err := http.Get("http://" + srv.Addr() + "/extra")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "extra ok") {
		t.Fatalf("extra handler not served: %v %q", err, body)
	}
}

// A client that never finishes its headers must not hold a debug
// connection forever: the server bounds header reads.
func TestDebugServerBoundsHeaderReads(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.srv.ReadHeaderTimeout; got != readHeaderTimeout || got <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
}
