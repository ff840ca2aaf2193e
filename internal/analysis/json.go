package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
)

// diagJSON is the machine-readable diagnostic shape emitted by
// `starlint -json`: one array of these, so tools can read findings and
// diff them across revisions.
type diagJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Symbol   string `json:"symbol,omitempty"`
	Message  string `json:"message"`
}

// WriteJSON writes diags as an indented JSON array. An empty run
// writes "[]" rather than null so consumers always parse an array.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]diagJSON, 0, len(diags))
	for _, d := range diags {
		out = append(out, diagJSON{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Symbol:   d.Symbol,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses WriteJSON's output back into diagnostics, so tests
// and tooling can round-trip the archive format.
func ReadJSON(r io.Reader) ([]Diagnostic, error) {
	var in []diagJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("starlint json: %w", err)
	}
	diags := make([]Diagnostic, 0, len(in))
	for _, d := range in {
		diags = append(diags, Diagnostic{
			Pos:      token.Position{Filename: d.File, Line: d.Line, Column: d.Column},
			Analyzer: d.Analyzer,
			Symbol:   d.Symbol,
			Message:  d.Message,
		})
	}
	return diags, nil
}
