// starlint runs the project's static analyzers (internal/analysis)
// over the module: the per-body disciplines (permalias, globalrand,
// nakedpanic, uncheckederr, factsize, walltime, metricname) plus the
// facts-engine analyzers that reason transitively through call chains
// (hotalloc, maporder, goroleak) — everything that keeps the n!-2|Fv|
// reproduction deterministic, aliasing-safe and allocation-free on its
// hot paths. It is zero-dependency: packages are parsed and
// type-checked with the standard library only.
//
// Usage:
//
//	starlint [-config file] [-analyzers a,b,...] [-json] [-strict-config] [packages]
//
// With no arguments (or "./...") every package of the enclosing module
// is analyzed, skipping testdata. Arguments naming directories analyze
// exactly those directories, which is how fixture packages under
// testdata are linted deliberately.
//
// Diagnostics print one per line as "file:line: [analyzer] message";
// -json instead emits a machine-readable array (file, line, column,
// analyzer, symbol, message) for CI to archive and diff. Exit status:
// 0 clean, 1 findings, 2 load or usage failure.
//
// Findings are suppressed at a site with a reasoned comment on the
// offending line or the line above:
//
//	//starlint:ignore <analyzer> <reason>
//
// or for a whole symbol via the config file (default: .starlint at the
// module root, if present):
//
//	allow <analyzer> <symbol>
//
// Suppressions and config entries that no longer suppress anything are
// reported as stale — warnings by default, findings (exit 1) under
// -strict-config. A hot path is marked in its source only: a
// //starlint:hotpath doc directive opts a function into hotalloc
// enforcement.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("starlint", flag.ContinueOnError)
	configPath := fs.String("config", "", "allowlist config file (default: <module root>/.starlint if present)")
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	strictConfig := fs.Bool("strict-config", false, "treat stale suppressions and config entries as findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.All()
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "starlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "starlint: %v\n", err)
		return 2
	}

	cfg, errCode := loadConfig(loader, *configPath)
	if errCode != 0 {
		return errCode
	}

	pkgs, errCode := load(loader, fs.Args())
	if errCode != 0 {
		return errCode
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "starlint: %s: %v\n", pkg.ImportPath, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}

	diags, stale := analysis.Analyze(pkgs, analyzers, cfg)
	for i := range diags {
		diags[i].Pos.Filename = relPath(diags[i].Pos.Filename)
	}
	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "starlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	for _, s := range stale {
		s.Pos.Filename = relPath(s.Pos.Filename)
		if *strictConfig {
			fmt.Fprintf(os.Stderr, "%s\n", s)
		} else {
			fmt.Fprintf(os.Stderr, "starlint: warning: %s\n", s)
		}
	}
	failed := len(diags) > 0 || (*strictConfig && len(stale) > 0)
	if failed {
		fmt.Fprintf(os.Stderr, "starlint: %d finding(s), %d stale suppression(s)\n", len(diags), len(stale))
		return 1
	}
	return 0
}

// loadConfig resolves the allowlist: the explicit -config file, or the
// module root's .starlint when present.
func loadConfig(loader *analysis.Loader, path string) (*analysis.Config, int) {
	if path == "" {
		path = filepath.Join(loader.ModuleRoot(), ".starlint")
		if _, err := os.Stat(path); err != nil {
			return nil, 0
		}
	}
	cfg, err := analysis.LoadConfig(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starlint: %v\n", err)
		return nil, 2
	}
	return cfg, 0
}

// load resolves the package arguments: no arguments or "./..." mean
// the whole module; anything else is a directory.
func load(loader *analysis.Loader, args []string) ([]*analysis.Package, int) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*analysis.Package
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			module, err := loader.LoadModule()
			if err != nil {
				fmt.Fprintf(os.Stderr, "starlint: %v\n", err)
				return nil, 2
			}
			pkgs = append(pkgs, module...)
			continue
		}
		pkg, err := loader.LoadDir(filepath.Clean(arg))
		if err != nil {
			fmt.Fprintf(os.Stderr, "starlint: %s: %v\n", arg, err)
			return nil, 2
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, 0
}

// relPath shortens a diagnostic path relative to the working directory
// when that makes it strictly cleaner to read.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
