package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// syncBuffer lets the test poll run's output while run still writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var announceRE = regexp.MustCompile(`starserve listening on (http://\S+)`)

// TestRunServe boots the real binary loop on an ephemeral port, drives
// the API and ops endpoints over TCP, and lets -dur wind it down.
func TestRunServe(t *testing.T) {
	var out syncBuffer
	var errOut bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-min-n", "4", "-max-n", "4",
			"-dur", "2s",
		}, &out, &errOut)
	}()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := announceRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no announce line:\n%s\n%s", out.String(), errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/embed?n=4&fv=2134")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/embed status %d", resp.StatusCode)
	}
	if resp.Header.Get(serve.TraceHeader) == "" {
		t.Error("response missing the trace header echo")
	}
	var body struct {
		Length int `json:"length"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Length == 0 {
		t.Error("embed response has no ring length")
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, r.StatusCode)
		}
	}

	if code := <-done; code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "pools warm") {
		t.Errorf("missing warm-up line:\n%s", out.String())
	}
}

// TestRunLoadSelfHosted exercises `starserve -load` with no -target:
// it must boot its own server, churn it, and write the JSON summary.
func TestRunLoadSelfHosted(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "load.json")
	var out syncBuffer
	var errOut bytes.Buffer
	code := run([]string{
		"-load", "-load-n", "4", "-requests", "20", "-concurrency", "2",
		"-ring-every", "7", "-chaos-every", "10", "-out", outPath,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"self-hosted server on http://", "load done: 20 requests", "/embed", "/repair"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]*serve.LoadResult
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	res := doc["serve_load"]
	if res == nil {
		t.Fatalf("artifact missing serve_load: %s", data)
	}
	var total int64
	for _, st := range res.Routes {
		total += st.Count
	}
	if total != 20 {
		t.Errorf("artifact tallies %d requests, want 20: %s", total, data)
	}
	// /chaos was only implicitly enabled by -chaos-every; its injected
	// failures must be visible as route errors.
	if ch := res.Routes["chaos"]; ch == nil || ch.Errors != ch.Count {
		t.Errorf("chaos route not exercised: %+v", res.Routes)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out syncBuffer
	var errOut bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-min-n", "2"}, &out, &errOut); code != 1 {
		t.Errorf("bad dimension range: exit %d, want 1", code)
	}
	if code := run([]string{"-load", "-load-n", "99"}, &out, &errOut); code != 1 {
		t.Errorf("bad load dimension: exit %d, want 1", code)
	}
}
