package export

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// The OpenMetrics text exposition (the format Prometheus scrapes).
// Dotted obs names map to underscore families: "core.s4.cache_hits"
// becomes counter core_s4_cache_hits (sample core_s4_cache_hits_total),
// gauges keep their name, and each histogram is exposed as a summary —
// p50/p95 quantiles plus _sum and _count, all in seconds — with the
// tracked maximum as a companion <name>_max_seconds gauge.

// openMetricsContentType is the content type Prometheus negotiates for
// OpenMetrics 1.0.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// MetricName maps a dotted obs metric name onto the OpenMetrics
// grammar: dots become underscores, anything else invalid becomes '_'.
func MetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// seconds renders nanoseconds as an OpenMetrics float in seconds.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// omFamily accumulates one exposition family: its TYPE and the sample
// lines belonging to it (rendered, unsorted).
type omFamily struct {
	typ   string
	lines []string
}

// renderLabels renders a label set as an exposition label clause, ""
// when empty.
func renderLabels(ls obs.Labels) string {
	if len(ls) == 0 {
		return ""
	}
	return "{" + ls.String() + "}"
}

// WriteOpenMetrics renders one registry snapshot as OpenMetrics text,
// deterministically ordered, terminated by the mandatory "# EOF".
// Labeled metric identities (name{k="v"} snapshot keys) become label
// sets on the sample lines, and every label set of one family shares a
// single TYPE declaration.
func WriteOpenMetrics(w io.Writer, snap obs.Snapshot) error {
	fams := map[string]*omFamily{}
	add := func(fam, typ, line string) {
		f := fams[fam]
		if f == nil {
			f = &omFamily{typ: typ}
			fams[fam] = f
		}
		f.lines = append(f.lines, line)
	}
	split := func(encoded string) (string, obs.Labels, error) {
		name, ls, err := obs.ParseName(encoded)
		if err != nil {
			return "", nil, err
		}
		return MetricName(name), ls, nil
	}

	for name, v := range snap.Counters {
		m, ls, err := split(name)
		if err != nil {
			return err
		}
		add(m, "counter", fmt.Sprintf("%s_total%s %d", m, renderLabels(ls), v))
	}
	for name, v := range snap.Gauges {
		m, ls, err := split(name)
		if err != nil {
			return err
		}
		add(m, "gauge", fmt.Sprintf("%s%s %d", m, renderLabels(ls), v))
	}
	for name, st := range snap.Histograms {
		m, ls, err := split(name)
		if err != nil {
			return err
		}
		q50 := ls.Merge(obs.Labels{{Key: "quantile", Value: "0.5"}})
		q95 := ls.Merge(obs.Labels{{Key: "quantile", Value: "0.95"}})
		add(m, "summary", fmt.Sprintf("%s%s %s", m, renderLabels(q50), seconds(st.P50NS)))
		if len(st.Exemplars) > 0 {
			// OpenMetrics exemplar syntax: the slowest traced
			// observation rides the p95 line with its trace id, so a
			// dashboard outlier links straight to its trace.
			ex := st.Exemplars[0]
			add(m, "summary", fmt.Sprintf("%s%s %s # {trace_id=\"%s\"} %s",
				m, renderLabels(q95), seconds(st.P95NS), ex.Trace, seconds(ex.NS)))
		} else {
			add(m, "summary", fmt.Sprintf("%s%s %s", m, renderLabels(q95), seconds(st.P95NS)))
		}
		add(m, "summary", fmt.Sprintf("%s_sum%s %s", m, renderLabels(ls), seconds(st.SumNS)))
		add(m, "summary", fmt.Sprintf("%s_count%s %d", m, renderLabels(ls), st.Count))
		add(m+"_max_seconds", "gauge",
			fmt.Sprintf("%s_max_seconds%s %s", m, renderLabels(ls), seconds(st.MaxNS)))
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := fams[name]
		sort.Strings(f.lines)
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, f.typ)
		for _, line := range f.lines {
			fmt.Fprintln(bw, line)
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// MetricsHandler serves the registry's live snapshot as OpenMetrics
// text; mount it at /metrics on the obs debug server.
func MetricsHandler(r *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", openMetricsContentType)
		_ = WriteOpenMetrics(w, r.Snapshot())
	})
}

var (
	omNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// Sample grammar: name, optional labelset, value, optional
	// timestamp, optional exemplar (" # {labels} value [timestamp]").
	omSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)( [0-9.e+-]+)?( # \{([^{}]*)\} (\S+)( [0-9.e+-]+)?)?$`)
	omTypes    = map[string]bool{
		"counter": true, "gauge": true, "summary": true, "histogram": true,
		"info": true, "stateset": true, "unknown": true,
	}
)

// ValidateOpenMetrics checks that data is well-formed OpenMetrics text
// and returns the number of metric families; see
// ValidateOpenMetricsDetail for the full contract.
func ValidateOpenMetrics(data []byte) (families int, err error) {
	families, _, err = ValidateOpenMetricsDetail(data)
	return families, err
}

// ValidateOpenMetricsDetail checks that data is well-formed OpenMetrics
// text: metadata lines declare known types over legal names, every
// sample belongs to a declared family with the suffix its type allows,
// values (and exemplar values) parse as floats, and the exposition ends
// with "# EOF". It returns the number of metric families and of
// exemplar-carrying samples. It backs the exporter's unit tests, the
// CI /metrics smoke leg, and starmon -check-metrics.
func ValidateOpenMetricsDetail(data []byte) (families, exemplars int, err error) {
	lines := strings.Split(string(data), "\n")
	declared := map[string]string{} // family -> type
	sawEOF := false
	for i, line := range lines {
		lineno := i + 1
		if sawEOF {
			if strings.TrimSpace(line) != "" {
				return 0, 0, fmt.Errorf("line %d: content after # EOF", lineno)
			}
			continue
		}
		if line == "" {
			continue
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || fields[0] != "#" {
				return 0, 0, fmt.Errorf("line %d: malformed metadata line %q", lineno, line)
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) != 4 {
					return 0, 0, fmt.Errorf("line %d: TYPE wants '# TYPE <name> <type>', got %q", lineno, line)
				}
				name, typ := fields[2], fields[3]
				if !omNameRE.MatchString(name) {
					return 0, 0, fmt.Errorf("line %d: illegal metric family name %q", lineno, name)
				}
				if !omTypes[typ] {
					return 0, 0, fmt.Errorf("line %d: unknown metric type %q", lineno, typ)
				}
				if _, dup := declared[name]; dup {
					return 0, 0, fmt.Errorf("line %d: family %q declared twice", lineno, name)
				}
				declared[name] = typ
			case "HELP", "UNIT":
				// Optional metadata; name syntax is all we check.
				if !omNameRE.MatchString(fields[2]) {
					return 0, 0, fmt.Errorf("line %d: illegal metric family name %q", lineno, fields[2])
				}
			default:
				return 0, 0, fmt.Errorf("line %d: unknown metadata keyword %q", lineno, fields[1])
			}
			continue
		}
		m := omSampleRE.FindStringSubmatch(line)
		if m == nil {
			return 0, 0, fmt.Errorf("line %d: malformed sample line %q", lineno, line)
		}
		if m[2] != "" {
			if err := validateLabelSet(m[2][1 : len(m[2])-1]); err != nil {
				return 0, 0, fmt.Errorf("line %d: %v", lineno, err)
			}
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			return 0, 0, fmt.Errorf("line %d: sample value %q is not a float", lineno, m[3])
		}
		if familyOf(m[1], declared) == "" {
			return 0, 0, fmt.Errorf("line %d: sample %q has no TYPE declaration", lineno, m[1])
		}
		if m[5] != "" {
			if _, err := strconv.ParseFloat(m[7], 64); err != nil {
				return 0, 0, fmt.Errorf("line %d: exemplar value %q is not a float", lineno, m[7])
			}
			exemplars++
		}
	}
	if !sawEOF {
		return 0, 0, fmt.Errorf("missing # EOF terminator")
	}
	return len(declared), exemplars, nil
}

// omLabelNameRE is the OpenMetrics label-name grammar.
var omLabelNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// validateLabelSet checks the interior of a sample's {...} clause:
// name="value" pairs separated by commas, legal label names, properly
// quoted values with only the \\, \" and \n escapes, and no duplicate
// names. body is the clause without its braces.
func validateLabelSet(body string) error {
	seen := map[string]bool{}
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return fmt.Errorf("malformed label pair near %q", body)
		}
		name := body[:eq]
		if !omLabelNameRE.MatchString(name) {
			return fmt.Errorf("illegal label name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("duplicate label name %q", name)
		}
		seen[name] = true
		rest := body[eq+2:]
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return fmt.Errorf("dangling escape in label %q", name)
				}
				switch rest[i+1] {
				case '\\', '"', 'n':
					i++
				default:
					return fmt.Errorf("illegal escape \\%c in label %q", rest[i+1], name)
				}
				continue
			}
			if c == '"' {
				break
			}
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated value for label %q", name)
		}
		body = rest[i+1:]
		if body == "" {
			return nil
		}
		if body[0] != ',' {
			return fmt.Errorf("expected ',' after label %q", name)
		}
		body = body[1:]
		if body == "" {
			return fmt.Errorf("trailing comma in label set")
		}
	}
	return nil
}

// familyOf resolves a sample name to its declared family, honoring the
// per-type suffixes OpenMetrics allows (_total, _sum, _count, _bucket,
// _created), or "" when no declaration covers it.
func familyOf(sample string, declared map[string]string) string {
	if _, ok := declared[sample]; ok {
		return sample
	}
	for _, suf := range []string{"_total", "_sum", "_count", "_bucket", "_created"} {
		base, found := strings.CutSuffix(sample, suf)
		if !found {
			continue
		}
		if _, ok := declared[base]; ok {
			return base
		}
	}
	return ""
}
