package export

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// The post-mortem bundle: the flight recorder's ring serialized as
// three artifacts that every existing checker already understands —
//
//	flight-events.ndjson  the ring's log lines (obs.ReadLog)
//	flight-trace.json     the ring's spans as a Perfetto trace
//	flight-metrics.txt    an OpenMetrics snapshot at dump time
//
// WriteFlightBundle lays them out in a directory (the -flight-dump flag
// and the on-error auto-dump), FlightHandler streams them as one tar
// over /debug/flight, and ReadFlightBundle loads either form back for
// starmon -postmortem.

// Bundle artifact names, shared by the writer, the HTTP handler and the
// reader.
const (
	FlightEventsName  = "flight-events.ndjson"
	FlightTraceName   = "flight-trace.json"
	FlightMetricsName = "flight-metrics.txt"
)

// flightArtifacts renders the recorder's current state into the three
// serialized artifacts.
func flightArtifacts(f *obs.FlightRecorder) (events, trace, metrics []byte, err error) {
	var ev bytes.Buffer
	if err := obs.WriteLog(&ev, f.Events()); err != nil {
		return nil, nil, nil, err
	}
	var tr bytes.Buffer
	if err := WriteTrace(&tr, f.SpanEvents()); err != nil {
		return nil, nil, nil, err
	}
	var om bytes.Buffer
	if err := WriteOpenMetrics(&om, f.Registry().Snapshot()); err != nil {
		return nil, nil, nil, err
	}
	return ev.Bytes(), tr.Bytes(), om.Bytes(), nil
}

// WriteFlightBundle dumps the recorder's state into dir (created if
// missing), replacing any previous bundle there.
func WriteFlightBundle(dir string, f *obs.FlightRecorder) error {
	if f == nil {
		return fmt.Errorf("export: no flight recorder installed")
	}
	events, trace, metrics, err := flightArtifacts(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range []struct {
		name string
		data []byte
	}{
		{FlightEventsName, events},
		{FlightTraceName, trace},
		{FlightMetricsName, metrics},
	} {
		if err := os.WriteFile(filepath.Join(dir, a.name), a.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// FlightBundleWriter adapts WriteFlightBundle to the dump-function
// shape FlightRecorder.SetAutoDump takes (the recorder cannot import
// this package).
func FlightBundleWriter(f *obs.FlightRecorder) func(dir string) error {
	return func(dir string) error { return WriteFlightBundle(dir, f) }
}

// FlightHandler serves the bundle as a tar stream on demand; mount it
// at /debug/flight on the obs debug server. Fetch with e.g.
// `curl http://addr/debug/flight | tar -x`.
func FlightHandler(f *obs.FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if f == nil {
			http.Error(w, "no flight recorder installed", http.StatusNotFound)
			return
		}
		events, trace, metrics, err := flightArtifacts(f)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-tar")
		tw := tar.NewWriter(w)
		for _, a := range []struct {
			name string
			data []byte
		}{
			{FlightEventsName, events},
			{FlightTraceName, trace},
			{FlightMetricsName, metrics},
		} {
			if err := tw.WriteHeader(&tar.Header{
				Name: a.name, Mode: 0o644, Size: int64(len(a.data)),
			}); err != nil {
				return
			}
			if _, err := tw.Write(a.data); err != nil {
				return
			}
		}
		_ = tw.Close()
	})
}

// FlightBundle is a loaded post-mortem bundle.
type FlightBundle struct {
	Events  []obs.Record
	Trace   []byte // raw trace_event JSON
	Metrics []byte // raw OpenMetrics text
}

// ReadFlightBundle loads a bundle from either form: a directory written
// by WriteFlightBundle, or a tar stream saved from /debug/flight.
func ReadFlightBundle(path string) (*FlightBundle, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var raw map[string][]byte
	if info.IsDir() {
		raw = map[string][]byte{}
		for _, name := range []string{FlightEventsName, FlightTraceName, FlightMetricsName} {
			data, err := os.ReadFile(filepath.Join(path, name))
			if err != nil {
				return nil, fmt.Errorf("export: flight bundle: %w", err)
			}
			raw[name] = data
		}
	} else {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		raw, err = readFlightTar(file)
		if err != nil {
			return nil, err
		}
	}
	b := &FlightBundle{Trace: raw[FlightTraceName], Metrics: raw[FlightMetricsName]}
	b.Events, err = obs.ReadLog(bytes.NewReader(raw[FlightEventsName]))
	if err != nil {
		return nil, err
	}
	if b.Trace == nil || b.Metrics == nil {
		return nil, fmt.Errorf("export: flight bundle %s is incomplete", path)
	}
	return b, nil
}

// readFlightTar extracts the three bundle members from a tar stream.
func readFlightTar(r io.Reader) (map[string][]byte, error) {
	want := map[string]bool{
		FlightEventsName: true, FlightTraceName: true, FlightMetricsName: true,
	}
	raw := map[string][]byte{}
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("export: flight tar: %w", err)
		}
		if !want[hdr.Name] {
			continue
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("export: flight tar %s: %w", hdr.Name, err)
		}
		raw[hdr.Name] = data
	}
	if len(raw) != len(want) {
		return nil, fmt.Errorf("export: flight tar is missing bundle members (got %d of %d)", len(raw), len(want))
	}
	return raw, nil
}
