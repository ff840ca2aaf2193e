package repro_test

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// End-to-end coverage of the starlint driver: exit status, one-line
// diagnostic format, and a clean pass over the repository itself.
// These tests spawn the go tool and are skipped under -short.

// runStarlint executes the driver and returns combined output plus the
// exit code (go run forwards the child's exit status).
func runStarlint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/starlint"}, args...)...)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run ./cmd/starlint %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), exitErr.ExitCode()
}

// TestStarlintFindsSeededViolations runs each analyzer over its fixture
// package and checks the exit status and the "file:line: [name]"
// diagnostic line format.
func TestStarlintFindsSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	for _, name := range []string{"permalias", "globalrand", "nakedpanic", "uncheckederr", "factsize", "walltime", "metricname", "hotalloc", "maporder", "goroleak"} {
		t.Run(name, func(t *testing.T) {
			out, code := runStarlint(t, "-analyzers", name, "./internal/analysis/testdata/src/"+name)
			if code != 1 {
				t.Fatalf("want exit 1 on seeded violations, got %d:\n%s", code, out)
			}
			lineRE := regexp.MustCompile(`(?m)^\S+fixture\.go:\d+: \[` + name + `\] .`)
			if !lineRE.MatchString(out) {
				t.Errorf("no %q diagnostic in driver format:\n%s", name, out)
			}
			if !strings.Contains(out, "starlint: ") || !strings.Contains(out, "finding(s)") {
				t.Errorf("missing findings summary line:\n%s", out)
			}
		})
	}
}

// TestStarlintCleanRepo asserts the repository's own tree lints clean
// under all ten analyzers with strict config — the same gate
// scripts/ci.sh enforces. Cleanliness under hotalloc is load-bearing:
// it proves the annotated hot paths (Plan.applySplice,
// pathsearch.Hamiltonian, the obs metric primitives, the core instr
// counters) are transitively allocation-free on the real module, not
// just in fixtures.
func TestStarlintCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out, code := runStarlint(t, "-strict-config", "./...")
	if code != 0 {
		t.Fatalf("repository does not lint clean (exit %d):\n%s", code, out)
	}
}

// TestStarlintHotpathsEnforced runs hotalloc alone over the real
// module: every function marked //starlint:hotpath must be proven
// allocation-free, and the config must hold no stale entry for the
// subset run.
func TestStarlintHotpathsEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out, code := runStarlint(t, "-strict-config", "-analyzers", "hotalloc", "./...")
	if code != 0 {
		t.Fatalf("hotalloc gate failed (exit %d):\n%s", code, out)
	}
}

// TestStarlintJSON runs the driver with -json over a seeded fixture and
// round-trips the output through analysis.ReadJSON, checking the
// machine-readable fields carry what the text format carries.
func TestStarlintJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	cmd := exec.Command("go", "run", "./cmd/starlint", "-json",
		"-analyzers", "hotalloc", "./internal/analysis/testdata/src/hotalloc")
	cmd.Dir = repoRoot(t)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit 1 on seeded violations, got %v\nstderr: %s", err, stderr.String())
	}
	diags, err := analysis.ReadJSON(strings.NewReader(stdout.String()))
	if err != nil {
		t.Fatalf("ReadJSON on driver output: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("driver emitted an empty JSON array for a seeded fixture")
	}
	for _, d := range diags {
		if d.Analyzer != "hotalloc" {
			t.Errorf("unexpected analyzer %q in JSON output", d.Analyzer)
		}
		if d.Pos.Filename == "" || d.Pos.Line == 0 || d.Message == "" {
			t.Errorf("JSON diagnostic missing position or message: %+v", d)
		}
		if d.Symbol == "" {
			t.Errorf("JSON diagnostic missing attributed symbol: %+v", d)
		}
	}
	// The clean subset must emit a parseable empty array, not nothing.
	cmd = exec.Command("go", "run", "./cmd/starlint", "-json", "-analyzers", "hotalloc", "./internal/perm")
	cmd.Dir = repoRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("clean -json run failed: %v", err)
	}
	if diags, err := analysis.ReadJSON(strings.NewReader(string(out))); err != nil || len(diags) != 0 {
		t.Errorf("clean run: want empty JSON array, got %q (err %v)", out, err)
	}
}

// TestStarlintListAndSubset covers the -list flag and rejection of an
// unknown analyzer name.
func TestStarlintListAndSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out, code := runStarlint(t, "-list")
	if code != 0 {
		t.Fatalf("-list failed (exit %d):\n%s", code, out)
	}
	for _, name := range []string{"permalias", "globalrand", "nakedpanic", "uncheckederr", "factsize", "walltime", "metricname", "hotalloc", "maporder", "goroleak"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
	out, code = runStarlint(t, "-analyzers", "nosuch", "./internal/perm")
	if code == 0 {
		t.Fatalf("unknown analyzer accepted:\n%s", out)
	}
}
