// Package analysis implements starlint, the project's zero-dependency
// static-analysis layer (stdlib go/parser + go/ast + go/types only).
//
// The repository's value is a *verified* reproduction of the paper's
// n!-2|Fv| ring embedding, and its worst failure mode is silent
// invariant corruption: an aliased permutation slice or a
// nondeterministic RNG draw produces a ring that still "looks" valid
// until internal/check or a fuzzer happens to hit it. The analyzers in
// this package machine-enforce the disciplines that keep the harness
// reproducible and the theorem refactor-safe:
//
//	permalias    - a Perm/int-slice parameter is stored or mutated
//	               without an explicit Clone/copy
//	globalrand   - math/rand package-level functions in internal code
//	               (fault campaigns must draw from a plumbed *rand.Rand)
//	nakedpanic   - panic outside Must*/must* invariant helpers in
//	               library packages
//	uncheckederr - discarded error returns in library packages
//	factsize     - unguarded int arithmetic on factorial-scale values
//	walltime     - time.Now/time.Since outside internal/obs (timing
//	               must flow through an injectable obs.Clock)
//	metricname   - metric-name literals off the pkg.group.name dotted
//	               convention, or duplicating a package constant
//	hotalloc     - allocations reachable from //starlint:hotpath
//	               functions, transitively through module call chains
//	maporder     - map iteration order reaching a returned slice,
//	               emitted metric/event, or written output unsorted
//	goroleak     - goroutine launches with no join path (WaitGroup,
//	               channel receive, or stop closure)
//
// The last three are built on the facts engine (see facts.go): one
// shared traversal computes per-function facts — allocates, joins,
// mapOrdered — and propagates them bottom-up across the package graph
// in dependency order, so the analyzers reason transitively through
// call chains instead of one function body at a time. All analyzers
// share one flattened AST per package (see Inspector).
//
// Diagnostics print as "file:line: [name] message". A finding can be
// suppressed at its site with a reasoned comment,
//
//	//starlint:ignore <name> <reason>
//
// placed on the offending line or the line directly above it, or
// allowlisted for a whole symbol through the driver config (see
// Config). Suppressions and allow entries that no longer match any
// finding are themselves reported as stale, so the ignore surface
// cannot silently outgrow the problems it was written for.
// cmd/starlint is the command-line driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PermAlias,
		GlobalRand,
		NakedPanic,
		UncheckedErr,
		FactSize,
		WallTime,
		MetricName,
		HotAlloc,
		MapOrder,
		GoroLeak,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Diagnostic is one finding, locatable and attributable.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	// Symbol is the qualified symbol the finding is attributed to (the
	// offending callee, or the enclosing function), used by the config
	// allowlist. It may be empty when no symbol is identifiable.
	Symbol  string
	Message string
}

// String renders the diagnostic in the driver's one-line format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package, plus the
// run-wide facts shared by every pass.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Facts    *Facts // per-function facts over every loaded package; may be nil

	diags *[]Diagnostic
}

// Reportf records a finding at pos, attributed to symbol.
func (p *Pass) Reportf(pos token.Pos, symbol, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Symbol:   symbol,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InternalPackage reports whether the package under analysis is part of
// the module's library surface: the module root package or anything
// under internal/. The cmd/ and examples/ trees are deliberately out of
// scope for the discipline analyzers (a main package may panic and may
// keep a seeded local RNG).
func (p *Pass) InternalPackage() bool {
	path := p.Pkg.ImportPath
	mod := p.Pkg.Module
	return path == mod || strings.HasPrefix(path, mod+"/internal/")
}

// EnclosingFuncName returns the name of the innermost function
// declaration containing pos ("" at package scope). The second result
// is the qualified symbol for the allowlist.
func (p *Pass) EnclosingFuncName(pos token.Pos) (name, symbol string) {
	for _, f := range p.Pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			if obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				return fd.Name.Name, FuncSymbol(obj)
			}
			return fd.Name.Name, p.Pkg.ImportPath + "." + fd.Name.Name
		}
	}
	return "", ""
}

// FuncSymbol renders a function or method object as the qualified form
// the allowlist matches against: "pkg/path.Func" for functions and
// "pkg/path.(*Type).Method" / "pkg/path.(Type).Method" for methods.
func FuncSymbol(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if pt, isPtr := t.(*types.Pointer); isPtr {
			t = pt.Elem()
			ptr = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			return fmt.Sprintf("%s.(%s%s).%s", named.Obj().Pkg().Path(), ptr, named.Obj().Name(), fn.Name())
		}
		return fn.FullName()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// Run executes the analyzers over the packages, drops suppressed and
// allowlisted findings, and returns the rest sorted by position. cfg
// may be nil. Malformed suppression comments are themselves reported
// under the pseudo-analyzer name "starlint".
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	diags, _ := Analyze(pkgs, analyzers, cfg)
	return diags
}

// A Stale records a suppression comment or config entry that no longer
// suppresses anything. The ignore surface is part of the lint contract:
// an entry that outlived its finding hides future regressions at the
// same site.
type Stale struct {
	Pos     token.Position
	Message string
}

// String renders the stale entry in the driver's one-line format.
func (s Stale) String() string {
	return fmt.Sprintf("%s:%d: %s", s.Pos.Filename, s.Pos.Line, s.Message)
}

// Analyze is Run plus stale detection: it additionally returns every
// //starlint:ignore comment and config entry that suppressed nothing
// during this run. Staleness is only judged for entries whose analyzer
// actually ran ("all" entries need the full suite), so a subset run
// never produces false stale reports.
func Analyze(pkgs []*Package, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, []Stale) {
	runset := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		runset[a.Name] = true
	}
	fullSuite := len(runset) == len(All())
	cfg.resetUsage()

	facts := ComputeFacts(pkgs)
	var diags []Diagnostic
	var stale []Stale
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg, &diags)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts, diags: &raw}
			a.Run(pass)
		}
		for _, d := range raw {
			if sup.covers(d) {
				continue
			}
			if cfg.Allowed(d.Analyzer, d.Symbol) {
				continue
			}
			diags = append(diags, d)
		}
		stale = append(stale, sup.stale(runset, fullSuite)...)
	}
	stale = append(stale, cfg.stale(runset)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return diags, stale
}

// A supEntry is one //starlint:ignore comment: the analyzer names it
// suppresses and which of them it actually suppressed this run.
type supEntry struct {
	pos   token.Position
	names map[string]bool
	used  map[string]bool
}

// suppressions maps file -> comment line -> the entry there.
type suppressions map[string]map[int]*supEntry

// covers reports whether d is suppressed by an ignore comment on its
// own line or the line directly above, marking the matched name used.
func (s suppressions) covers(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		e := lines[line]
		if e == nil {
			continue
		}
		if e.names[d.Analyzer] {
			e.used[d.Analyzer] = true
			return true
		}
		if e.names["all"] {
			e.used["all"] = true
			return true
		}
	}
	return false
}

// stale returns the entries that suppressed nothing, restricted to
// analyzers that ran (an "all" entry is judged only under the full
// suite, when any finding it could cover had a chance to fire). The
// result is sorted: the receiver is a map and maporder holds this
// package to its own standard.
func (s suppressions) stale(runset map[string]bool, fullSuite bool) []Stale {
	var out []Stale
	for _, lines := range s {
		for _, e := range lines {
			for name := range e.names {
				if name == "all" {
					if fullSuite && len(e.used) == 0 {
						out = append(out, Stale{Pos: e.pos,
							Message: "stale suppression: this //starlint:ignore all comment no longer suppresses anything"})
					}
					continue
				}
				if runset[name] && !e.used[name] && !e.used["all"] {
					out = append(out, Stale{Pos: e.pos,
						Message: fmt.Sprintf("stale suppression: no %s finding here; remove the //starlint:ignore comment", name)})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//starlint:ignore"

// collectSuppressions scans every comment of the package for
// //starlint:ignore directives, reporting malformed ones. Names are
// validated against the full suite, not the run subset: a comment for
// an analyzer that simply is not running this time is inert, not
// malformed.
func collectSuppressions(pkg *Package, diags *[]Diagnostic) suppressions {
	known := make(map[string]bool, len(All())+1)
	known["all"] = true
	for _, a := range All() {
		known[a.Name] = true
	}
	sup := make(suppressions)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "starlint",
						Message:  "malformed suppression: want //starlint:ignore <analyzer> <reason>",
					})
					continue
				}
				name := fields[0]
				if !known[name] {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "starlint",
						Message:  fmt.Sprintf("suppression names unknown analyzer %q", name),
					})
					continue
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*supEntry)
					sup[pos.Filename] = byLine
				}
				e := byLine[pos.Line]
				if e == nil {
					e = &supEntry{pos: pos, names: make(map[string]bool), used: make(map[string]bool)}
					byLine[pos.Line] = e
				}
				e.names[name] = true
			}
		}
	}
	return sup
}
