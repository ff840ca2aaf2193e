// Package harness drives the evaluation suite. The paper is a theory
// paper without experimental tables, so the harness reproduces each of
// its quantitative claims as a table or data series (experiments T1-T6,
// F1-F8 and the A1 ablations, indexed in DESIGN.md): Theorem 1's length guarantee and its
// worst-case optimality, the improvements over the Tseng-Chang-Sheu and
// Latifi-Bagherzadeh baselines, the edge-fault and mixed-fault
// extensions, the scaling of the construction itself, the latency of
// the incremental repair engine, and the memory profile of the
// streaming (skeleton-form) pipeline.
package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Cell is one table cell: the rendered text plus the typed value it
// came from, so machine consumers (starsweep -json) read
// numbers instead of re-parsing "150µs"-style strings. Exactly one of
// Num/NS is set for numeric cells; plain text cells carry neither.
type Cell struct {
	Text string `json:"text"`
	// Num is the numeric value for count/ratio cells (ints and floats).
	Num *float64 `json:"num,omitempty"`
	// NS is the duration in nanoseconds for timing cells.
	NS *int64 `json:"ns,omitempty"`
}

// TextCell wraps a plain, untyped cell.
func TextCell(s string) Cell { return Cell{Text: s} }

// NumCell pairs rendered text with its numeric value.
func NumCell(text string, v float64) Cell { return Cell{Text: text, Num: &v} }

// DurationCell renders d with time.Duration formatting and keeps the
// exact nanosecond value.
func DurationCell(d time.Duration) Cell {
	ns := int64(d)
	return Cell{Text: d.String(), NS: &ns}
}

// ptrInt64 is for building Cells whose text rounds a duration the NS
// field keeps exact.
func ptrInt64(v int64) *int64 { return &v }

// Table is a rendered experiment result: a titled grid plus the
// commentary tying it back to the paper's claim. The JSON tags shape
// starsweep -json output.
type Table struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Caption string   `json:"caption"`
	Headers []string `json:"headers"`
	Rows    [][]Cell `json:"rows"`
}

// AddRow appends a row of cells. Ints, floats and time.Durations become
// typed cells (formatting matches the old stringified rows exactly:
// "%v" for ints, "%.2f" for floats, Duration.String for durations);
// pre-built Cells pass through for custom text such as "n/a" or "12x";
// anything else is formatted with %v as plain text.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case Cell:
			row[i] = v
		case time.Duration:
			row[i] = DurationCell(v)
		case int:
			row[i] = NumCell(strconv.Itoa(v), float64(v))
		case int64:
			row[i] = NumCell(strconv.FormatInt(v, 10), float64(v))
		case float64:
			row[i] = NumCell(fmt.Sprintf("%.2f", v), v)
		default:
			row[i] = TextCell(fmt.Sprintf("%v", c))
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(cellTexts(row))
	}
	if t.Caption != "" {
		fmt.Fprintf(w, "\n%s\n", wrap(t.Caption, 72))
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub-flavored markdown (used to
// regenerate EXPERIMENTS.md).
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Headers, " | "))
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(cellTexts(row), " | "))
	}
	if t.Caption != "" {
		fmt.Fprintf(w, "\n%s\n", t.Caption)
	}
	fmt.Fprintln(w)
}

// cellTexts projects a row onto its rendered strings.
func cellTexts(row []Cell) []string {
	out := make([]string, len(row))
	for i, c := range row {
		out[i] = c.Text
	}
	return out
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func wrap(s string, width int) string {
	words := strings.Fields(s)
	var b strings.Builder
	col := 0
	for i, w := range words {
		if col+len(w)+1 > width && col > 0 {
			b.WriteByte('\n')
			col = 0
		} else if i > 0 {
			b.WriteByte(' ')
			col++
		}
		b.WriteString(w)
		col += len(w)
	}
	return b.String()
}

// SweepConfig sizes the sweeps. The zero value is upgraded by Defaults.
type SweepConfig struct {
	// MaxN bounds the largest dimension swept (experiments use smaller
	// ranges where exhaustiveness demands it). Default 8; F2 scales to
	// MaxN+1.
	MaxN int
	// Seeds is the number of random fault sets per configuration.
	Seeds int
	// Quick shrinks everything for smoke runs.
	Quick bool
	// Clock is the time source behind the wall-clock measurements (F2,
	// A1); nil means obs.Wall. Tests inject an obs.Manual clock to pin
	// timing columns.
	Clock obs.Clock
	// Obs receives sweep telemetry: one harness.exp.<ID> span per
	// experiment, plus whatever the embedder records when the experiment
	// threads the registry through (F2 does). nil disables it.
	Obs *obs.Registry
}

// Defaults fills unset fields.
func (c SweepConfig) Defaults() SweepConfig {
	if c.MaxN == 0 {
		c.MaxN = 8
	}
	if c.Seeds == 0 {
		c.Seeds = 10
	}
	if c.Quick {
		if c.MaxN > 7 {
			c.MaxN = 7
		}
		c.Seeds = 3
	}
	if c.Clock == nil {
		c.Clock = obs.Wall
	}
	return c
}

// clock returns the configured time source, defaulting to obs.Wall so
// experiments work on configs that skipped Defaults.
func (c SweepConfig) clock() obs.Clock {
	if c.Clock == nil {
		return obs.Wall
	}
	return c.Clock
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg SweepConfig) ([]*Table, error)
}

// All lists every experiment in DESIGN.md's index order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Theorem 1 length guarantee across fault distributions", T1},
		{"T2", "Worst-case optimality against the bipartite bound", T2},
		{"T3", "Improvement over Tseng-Chang-Sheu (n!-4|Fv|)", T3},
		{"T4", "Clustered faults vs Latifi-Bagherzadeh (n!-m!)", T4},
		{"T5", "Edge faults: Hamiltonian rings with |Fe| <= n-3", T5},
		{"T6", "Mixed faults: n!-2|Fv| with |Fv|+|Fe| <= n-3", T6},
		{"F1", "Series: ring length vs |Fv| per algorithm (n=7)", F1},
		{"F2", "Series: construction time and memory vs n", F2},
		{"F3", "Beyond worst case: fault parity mix (n=7)", F3},
		{"F4", "Extension: longest s-t paths by endpoint parity (n=7)", F4},
		{"F5", "Operational campaign on the machine simulator", F5},
		{"F6", "Empirical edge-fault tolerance beyond the budget", F6},
		{"F7", "Repair latency: splice fast path vs full rebuild", F7},
		{"F8", "Streaming scaling: skeleton-form embed + stream verify", F8},
		{"A1", "Ablations: one-fault table, branch ordering, greedy separation", A1},
	}
}

// Collect runs the named experiment (or all of them for "all") and
// returns the tables, timing each experiment under a harness.exp.<ID>
// span when cfg.Obs is set.
func Collect(id string, cfg SweepConfig) ([]*Table, error) {
	cfg = cfg.Defaults()
	var out []*Table
	matched := false
	for _, e := range All() {
		if id != "all" && !strings.EqualFold(id, e.ID) {
			continue
		}
		matched = true
		span := cfg.Obs.Span("harness.exp." + e.ID)
		tables, err := e.Run(cfg)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, tables...)
	}
	if !matched && id != "all" {
		return nil, fmt.Errorf("harness: unknown experiment %q", id)
	}
	return out, nil
}

// Run executes the named experiment (or all of them for "all") and
// prints its tables to w.
func Run(w io.Writer, id string, cfg SweepConfig) error {
	tables, err := Collect(id, cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}
