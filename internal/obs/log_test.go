package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventLogRoundTrip writes log lines through a flight recorder's
// NDJSON writer and reads them back; the ring's own NDJSON view (the
// bundle's flight-events.ndjson) must match the live stream byte for
// byte.
func TestEventLogRoundTrip(t *testing.T) {
	clock := NewManual(time.Unix(500, 0))
	var buf strings.Builder
	reg := NewRegistry()
	reg.SetClock(clock)
	f := NewFlightRecorder(reg, 8, &buf, LevelInfo)

	reg.Log(LevelDebug, "t.noise") // below min: dropped
	reg.Log(LevelInfo, "t.fault", F("vertex", "213456"), F("count", 3))
	clock.Advance(time.Second)
	reg.Log(LevelWarn, "t.repair", F("outcome", "splice"))

	recs, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (debug filtered):\n%s", len(recs), buf.String())
	}
	if recs[0].Event != "t.fault" || recs[0].Level != "info" {
		t.Errorf("first record: %+v", recs[0])
	}
	if recs[0].T != time.Unix(500, 0).UnixNano() {
		t.Errorf("timestamp not on the manual clock: %d", recs[0].T)
	}
	if recs[0].Fields["vertex"] != "213456" || recs[0].Fields["count"] != float64(3) {
		t.Errorf("fields lost in round trip: %+v", recs[0].Fields)
	}
	if recs[1].Event != "t.repair" || recs[1].T <= recs[0].T {
		t.Errorf("second record: %+v", recs[1])
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("log is not newline-terminated NDJSON")
	}
	if strings.Count(buf.String(), "\n") != 2 {
		t.Errorf("want one line per event:\n%q", buf.String())
	}
	var view strings.Builder
	if err := WriteLog(&view, f.Events()); err != nil {
		t.Fatal(err)
	}
	if view.String() != buf.String() {
		t.Errorf("ring view differs from the live stream:\n%s\nvs\n%s", view.String(), buf.String())
	}
}

// A value JSON cannot encode must not fail the log: the line carries an
// obs_marshal_error note instead of its fields.
func TestWriteLogMarshalError(t *testing.T) {
	var buf strings.Builder
	recs := []Record{{Level: "info", Event: "t.bad", Fields: map[string]interface{}{"ch": make(chan int)}}}
	if err := WriteLog(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Event != "t.bad" || back[0].Fields["obs_marshal_error"] == nil {
		t.Errorf("unencodable fields not replaced by a note: %+v", back)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var reg *Registry
	if reg.Enabled(LevelError) {
		t.Error("nil registry claims logging is enabled")
	}
	reg.Log(LevelError, "t.event", F("k", "v")) // must not panic
	bare := NewRegistry()
	if bare.Enabled(LevelError) {
		t.Error("registry without a flight recorder claims logging is enabled")
	}
	bare.Log(LevelError, "t.event") // no recorder: a no-op
}

func TestEventLogEnabled(t *testing.T) {
	reg := NewRegistry()
	NewFlightRecorder(reg, 8, nil, LevelWarn)
	if reg.Enabled(LevelInfo) || !reg.Enabled(LevelWarn) || !reg.Enabled(LevelError) {
		t.Error("level threshold not honored")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "Error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted nonsense")
	}
	for _, l := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Errorf("round trip %v: %v, %v", l, back, err)
		}
	}
}

func TestReadLogMalformed(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("{\"t_unix_ns\":1}\nnot json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	recs, err := ReadLog(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Errorf("blank-only input: %v, %v", recs, err)
	}
}

// TestEventLogConcurrentWriters hammers one recorder from many
// goroutines and replays its NDJSON output: every line must parse back
// as a record. Each marshaled line and its newline go out as a single
// Write under the ring's lock, so concurrent writers can never
// interleave mid-line; run under -race this also proves the write path
// itself is data-race free.
func TestEventLogConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	reg.SetClock(NewManual(time.Unix(1, 0)))
	NewFlightRecorder(reg, 64, &buf, LevelDebug)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				reg.Log(LevelInfo, "t.concurrent", F("writer", w), F("i", i))
			}
		}(w)
	}
	wg.Wait()

	recs, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrent writers corrupted the log: %v", err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(recs), writers*perWriter)
	}
	for _, rec := range recs {
		if rec.Event != "t.concurrent" || rec.Fields["writer"] == nil {
			t.Fatalf("mangled record: %+v", rec)
		}
	}
}

// TestRegistryEventLog covers the attach point instrumented subsystems
// reach events through: the registry's installed flight recorder.
func TestRegistryEventLog(t *testing.T) {
	var nilReg *Registry
	if nilReg.Flight() != nil {
		t.Error("nil registry must hand out a nil (no-op) recorder")
	}
	if NewFlightRecorder(nilReg, 8, &strings.Builder{}, LevelInfo) != nil {
		t.Error("nil registry produced a live recorder")
	}

	reg := NewRegistry()
	if reg.Flight() != nil {
		t.Error("fresh registry must have no recorder")
	}
	var buf strings.Builder
	f := NewFlightRecorder(reg, 8, &buf, LevelInfo)
	if reg.Flight() != f {
		t.Error("NewFlightRecorder did not install")
	}
	reg.Log(LevelInfo, "t.attached")
	if !strings.Contains(buf.String(), "t.attached") {
		t.Error("event did not reach the recorder's writer")
	}
	if events := f.Events(); len(events) != 1 || events[0].Event != "t.attached" {
		t.Errorf("event did not reach the ring: %+v", events)
	}
}
