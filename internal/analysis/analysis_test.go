package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// TestGolden runs each analyzer over its seeded fixture package under
// testdata/src/<name> and compares the rendered diagnostics against
// testdata/golden/<name>.txt. Run with -update to regenerate.
func TestGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", a.Name))
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{a}, nil)
			var b strings.Builder
			for _, d := range diags {
				rel, err := filepath.Rel(srcRoot, d.Pos.Filename)
				if err != nil {
					rel = d.Pos.Filename
				}
				fmt.Fprintf(&b, "%s:%d: [%s] %s\n", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer, d.Message)
			}
			got := b.String()
			if got == "" {
				t.Fatalf("analyzer %s found nothing in its fixture; the golden test is vacuous", a.Name)
			}
			goldenPath := filepath.Join("testdata", "golden", a.Name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// parseTestPackage type-checks a single stdlib-import-free source file
// into a Package, for driver-level unit tests that do not need the
// module loader.
func parseTestPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := &Package{
		ImportPath: "repro/internal/fixture",
		Module:     "repro",
		Dir:        ".",
		Fset:       fset,
		Files:      []*ast.File{f},
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{Error: func(err error) {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}}
	pkg.Types, _ = conf.Check(pkg.ImportPath, fset, pkg.Files, pkg.Info)
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors in test source: %v", pkg.TypeErrors)
	}
	return pkg
}

func diagStrings(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%d: [%s] %s", d.Pos.Line, d.Analyzer, d.Message)
	}
	return out
}

// TestSuppressionSameLine checks that an ignore comment trailing the
// offending line suppresses the finding (the golden fixtures cover the
// line-above form).
func TestSuppressionSameLine(t *testing.T) {
	pkg := parseTestPackage(t, `package fixture

func Explode() {
	panic("boom") //starlint:ignore nakedpanic unrecoverable by design in this test
}
`)
	diags := Run([]*Package{pkg}, []*Analyzer{NakedPanic}, nil)
	if len(diags) != 0 {
		t.Errorf("same-line suppression ignored: %v", diagStrings(diags))
	}
}

// TestSuppressionMalformed checks that broken or unknown suppressions
// are themselves reported under the "starlint" pseudo-analyzer, and do
// not suppress anything.
func TestSuppressionMalformed(t *testing.T) {
	pkg := parseTestPackage(t, `package fixture

func Explode() {
	//starlint:ignore nakedpanic
	panic("boom")
}

func Implode() {
	//starlint:ignore nosuchanalyzer because reasons
	panic("boom")
}
`)
	diags := Run([]*Package{pkg}, All(), nil)
	var starlint, nakedpanic int
	for _, d := range diags {
		switch d.Analyzer {
		case "starlint":
			starlint++
		case "nakedpanic":
			nakedpanic++
		}
	}
	if starlint != 2 {
		t.Errorf("want 2 starlint diagnostics for malformed suppressions, got %d: %v", starlint, diagStrings(diags))
	}
	if nakedpanic != 2 {
		t.Errorf("malformed suppressions must not suppress: want 2 nakedpanic diagnostics, got %d: %v", nakedpanic, diagStrings(diags))
	}
}

// TestConfigAllowlist checks that a config allowlist drops findings by
// attributed symbol, including the trailing-* glob form.
func TestConfigAllowlist(t *testing.T) {
	pkg := parseTestPackage(t, `package fixture

func Explode() {
	panic("boom")
}

func Collapse() {
	panic("bang")
}
`)
	cfg, err := ParseConfig(strings.NewReader(`
# test allowlist
allow nakedpanic repro/internal/fixture.Explode
`), "test")
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{NakedPanic}, cfg)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "Collapse") {
		t.Errorf("want only the Collapse finding, got %v", diagStrings(diags))
	}

	glob, err := ParseConfig(strings.NewReader("allow all repro/internal/fixture.*\n"), "test")
	if err != nil {
		t.Fatalf("ParseConfig glob: %v", err)
	}
	if diags := Run([]*Package{pkg}, []*Analyzer{NakedPanic}, glob); len(diags) != 0 {
		t.Errorf("glob allowlist should drop everything, got %v", diagStrings(diags))
	}
}

// TestConfigParseErrors checks that malformed config lines and unknown
// analyzer names are rejected with positions.
func TestConfigParseErrors(t *testing.T) {
	for _, bad := range []string{
		"deny nakedpanic x\n",
		"allow nakedpanic\n",
		"allow nosuch repro/internal/perm.Factorial\n",
		"hotpath repro/internal/perm.Factorial\n", // hot paths are marked in source
	} {
		if _, err := ParseConfig(strings.NewReader(bad), "test"); err == nil {
			t.Errorf("ParseConfig(%q): want error, got nil", bad)
		}
	}
	cfg, err := ParseConfig(strings.NewReader("# only comments\n\n"), "test")
	if err != nil {
		t.Fatalf("comment-only config: %v", err)
	}
	if cfg.Allowed("nakedpanic", "anything") {
		t.Error("empty config must allow nothing")
	}
	var nilCfg *Config
	if nilCfg.Allowed("nakedpanic", "anything") {
		t.Error("nil config must allow nothing")
	}
}

// TestStaleSuppressions is the golden test for stale detection: an
// ignore comment that suppresses nothing is reported with its position,
// one that fires is not, and entries naming analyzers outside the run
// set are never judged.
func TestStaleSuppressions(t *testing.T) {
	pkg := parseTestPackage(t, `package fixture

func Explode() {
	//starlint:ignore nakedpanic unrecoverable by design in this test
	panic("boom")
}

func Quiet() int {
	//starlint:ignore nakedpanic nothing here panics anymore
	return 1
}

func AlsoQuiet() int {
	//starlint:ignore globalrand the rand call was removed long ago
	return 2
}
`)
	_, stale := Analyze([]*Package{pkg}, All(), nil)
	want := []string{
		"fixture.go:9: stale suppression: no nakedpanic finding here; remove the //starlint:ignore comment",
		"fixture.go:14: stale suppression: no globalrand finding here; remove the //starlint:ignore comment",
	}
	var got []string
	for _, s := range stale {
		got = append(got, s.String())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stale suppressions differ\n got: %v\nwant: %v", got, want)
	}

	// A subset run that excludes globalrand must not judge its comment.
	_, stale = Analyze([]*Package{pkg}, []*Analyzer{NakedPanic}, nil)
	got = nil
	for _, s := range stale {
		got = append(got, s.String())
	}
	if len(got) != 1 || !strings.Contains(got[0], "fixture.go:9") {
		t.Errorf("subset run: want only the line-9 stale entry, got %v", got)
	}
}

// TestStaleConfig checks stale detection over driver-config entries:
// allow entries that suppress nothing are reported with the config
// file's position.
func TestStaleConfig(t *testing.T) {
	pkg := parseTestPackage(t, `package fixture

func Explode() {
	panic("boom")
}
`)
	cfg, err := ParseConfig(strings.NewReader(`# header comment
allow nakedpanic repro/internal/fixture.Explode
allow nakedpanic repro/internal/fixture.Gone
`), ".starlint")
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	diags, stale := Analyze([]*Package{pkg}, All(), cfg)
	for _, d := range diags {
		if d.Analyzer == "nakedpanic" {
			t.Errorf("allow entry did not suppress: %v", d)
		}
	}
	want := []string{
		`.starlint:3: stale allow entry: no nakedpanic finding is attributed to "repro/internal/fixture.Gone"`,
	}
	var got []string
	for _, s := range stale {
		got = append(got, s.String())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stale config entries differ\n got: %v\nwant: %v", got, want)
	}
}

// TestJSONRoundTrip checks that WriteJSON output parses back into the
// same diagnostics, and that an empty run still encodes a JSON array.
func TestJSONRoundTrip(t *testing.T) {
	pkg := parseTestPackage(t, `package fixture

func Explode() {
	panic("boom")
}
`)
	diags := Run([]*Package{pkg}, All(), nil)
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if fmt.Sprint(diags) != fmt.Sprint(back) {
		t.Errorf("round trip differs\n got: %v\nwant: %v", back, diags)
	}

	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON(nil): %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty run must encode as [], got %q", buf.String())
	}
}
