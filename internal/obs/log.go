package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Level orders structured events by severity. The zero value is
// LevelDebug, the chattiest.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer ("debug", "info", "warn", "error").
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("Level(%d)", int8(l))
}

// ParseLevel inverts Level.String.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown level %q (want debug|info|warn|error)", s)
}

// Field is one key/value attribute of a structured event.
type Field struct {
	K string
	V interface{}
}

// F builds a Field; sugar for event call sites.
func F(k string, v interface{}) Field { return Field{K: k, V: v} }

// Record is one log line, as held by the flight recorder, written to
// its NDJSON destination and re-read by ReadLog. Fields is nil when the
// event carried none. Trace/Span carry the emitting operation's
// identity (see Registry.StartOp) and are omitted for events logged
// outside any operation.
type Record struct {
	T      int64                  `json:"t_unix_ns"`
	Level  string                 `json:"level"`
	Event  string                 `json:"event"`
	Trace  TraceID                `json:"trace_id,omitempty"`
	Span   SpanID                 `json:"span_id,omitempty"`
	Fields map[string]interface{} `json:"fields,omitempty"`
}

// encodeRecord marshals one record as an NDJSON line (newline
// included). A field value JSON cannot encode is replaced, for this
// line only, by an obs_marshal_error note: the log is diagnostic output
// and must never fail the run it observes.
func encodeRecord(rec Record) []byte {
	line, err := json.Marshal(rec)
	if err != nil {
		rec.Fields = map[string]interface{}{"obs_marshal_error": err.Error()}
		line, _ = json.Marshal(rec)
	}
	return append(line, '\n')
}

// WriteLog writes records as NDJSON, one JSON object per line — the
// format of the -events-out stream and of a flight bundle's events,
// read back by ReadLog.
func WriteLog(w io.Writer, recs []Record) error {
	for _, rec := range recs {
		if _, err := w.Write(encodeRecord(rec)); err != nil {
			return err
		}
	}
	return nil
}

// ReadLog parses an NDJSON event stream back into records, skipping
// blank lines. A malformed line fails the whole read with its line
// number — replay tooling should not silently drop evidence.
func ReadLog(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("obs: event log line %d: %w", lineno, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: event log: %w", err)
	}
	return out, nil
}

// Enabled reports whether a log line at level would be recorded: a
// flight recorder is installed and level is at or above its minimum.
// Call sites that build fields for high-volume debug events use this
// to skip the work entirely.
func (r *Registry) Enabled(level Level) bool {
	if r == nil {
		return false
	}
	f := r.flight.Load()
	return f != nil && level >= f.min
}

// Log records one log line outside any operation context, stamped with
// the registry's labels, on the installed flight recorder (and its
// NDJSON writer, if any). Without a recorder, or on a nil registry, it
// is a no-op. Events belonging to an operation go through Op.Log,
// which also stamps the trace identity.
func (r *Registry) Log(level Level, event string, fields ...Field) {
	if r == nil {
		return
	}
	r.flight.Load().log(r, 0, 0, level, event, fields)
}
