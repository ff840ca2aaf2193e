package check_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
)

// The exhaustive differential: every golden ring and path of S_5 and
// S_6 that internal/core pins, rebuilt from its golden input and
// checked against its digest, then corrupted every way a family below
// allows and run through the reference and every entry point of the
// stream verifier (see agree). At S_5 and S_6 the families fit whole:
// one corrupted vertex, two swapped vertices, every rotation, the
// reversal, every truncation and a duplicate inserted anywhere among
// the first 30 positions, across the scan of the first 24 vertices and
// the index fixed at the 25th. S_7 has 210 block runs and the bitset's
// first page holds 1024, so a page boundary needs S_8: sampled
// substitutions there close the test.

// goldenDir holds internal/core's golden files.
const goldenDir = "../core/testdata/"

// goldenDigest is a golden file's pin of one ring or path.
type goldenDigest struct {
	Length int    `json:"length"`
	SHA256 string `json:"sha256"`
}

// goldenInput is the part of a golden ring or path case this test
// reads: the input, and the digest of what it built.
type goldenInput struct {
	Name          string       `json:"name"`
	N             int          `json:"n"`
	Fv            []string     `json:"fv"`
	Fe            [][2]string  `json:"fe"`
	Opportunistic bool         `json:"opportunistic"`
	From          string       `json:"from"`
	To            string       `json:"to"`
	BestEffort    bool         `json:"best_effort"`
	Ring          goldenDigest `json:"ring"`
	Path          goldenDigest `json:"path"`
}

// golden is one rebuilt golden ring or path with what verifying it
// takes: the fault set, the minimum length its plan verified against
// and, for a path, its ends.
type golden struct {
	name   string
	n      int
	vs     []perm.Code
	fs     *faults.Set
	minLen int
	ends   *[2]perm.Code
}

// loadGoldens rebuilds the golden cases of file whose n keep accepts,
// and fails unless each hashes to its golden digest.
func loadGoldens(t *testing.T, file string, keep func(n int) bool) []golden {
	t.Helper()
	data, err := os.ReadFile(goldenDir + file)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenInput
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	parse := func(n int, s string) perm.Code {
		p, err := perm.Parse(s)
		if err != nil || p.N() != n {
			t.Fatalf("golden vertex %q is not in S_%d", s, n)
		}
		return perm.Pack(p)
	}
	var out []golden
	for _, c := range cases {
		if !keep(c.N) {
			continue
		}
		fs := faults.NewSet(c.N)
		for _, s := range c.Fv {
			if err := fs.AddVertex(parse(c.N, s)); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range c.Fe {
			if err := fs.AddEdge(parse(c.N, e[0]), parse(c.N, e[1])); err != nil {
				t.Fatal(err)
			}
		}
		g := golden{name: c.Name, n: c.N, fs: fs}
		var plan *core.Plan
		want := c.Ring
		if c.From == "" {
			plan, err = core.Embed(c.N, fs.Clone(), core.Config{Opportunistic: c.Opportunistic, BestEffort: c.BestEffort})
		} else {
			g.ends = &[2]perm.Code{parse(c.N, c.From), parse(c.N, c.To)}
			plan, err = core.EmbedPath(c.N, fs.Clone(), g.ends[0], g.ends[1], core.Config{BestEffort: c.BestEffort})
			want = c.Path
		}
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		g.vs = plan.Ring()
		if res := plan.Result(); res.Guaranteed {
			g.minLen = res.Guarantee
		}
		h := sha256.New()
		for _, v := range g.vs {
			fmt.Fprintln(h, v.StringN(c.N))
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(g.vs) != want.Length || got != want.SHA256 {
			t.Fatalf("%s: rebuilt %d vertices with SHA-256 %s, golden %d with %s", c.Name, len(g.vs), got, want.Length, want.SHA256)
		}
		out = append(out, g)
	}
	return out
}

// check runs one corrupted copy vs of g at minimum length minLen
// through the reference, the iterator form of the stream verifier and
// FeedRun in runs of each of sizes (see agree), failing the test on a
// disagreement; the corruption is described, in the format and
// arguments what names, only then.
func (g *golden) check(t *testing.T, vs []perm.Code, minLen int, sizes []int, what string, args ...any) {
	want := refVerify(vs, g.n, g.fs, minLen, g.ends)
	if why := agree(t, want, vs, g.n, g.fs, minLen, g.ends, nil, sizes...); why != "" {
		t.Fatalf("%s, %s: %s", g.name, fmt.Sprintf(what, args...), why)
	}
}

// The FeedRun splits: the large families feed the whole slice in one
// run, as check.Ring does; the reshapes also feed it in block-sized
// runs, as a plan's self-verification does, and in runs of 7, which
// cut the blocks at every offset.
var (
	wholeRun = []int{0}
	allRuns  = []int{0, 24, 7}
)

// substitutions checks every copy of g with one position replaced by
// a vertex of subs, at each of positions, restoring g after each.
func (g *golden) substitutions(t *testing.T, positions []int, subs []perm.Code) int {
	t.Helper()
	vs := slices.Clone(g.vs)
	for _, i := range positions {
		orig := vs[i]
		for _, u := range subs {
			vs[i] = u
			g.check(t, vs, g.minLen, wholeRun, "position %d replaced by %v", i, u)
		}
		vs[i] = orig
	}
	return len(positions) * len(subs)
}

// transpositions checks every copy of g with two positions swapped.
func (g *golden) transpositions(t *testing.T) int {
	t.Helper()
	vs := slices.Clone(g.vs)
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			vs[i], vs[j] = vs[j], vs[i]
			g.check(t, vs, g.minLen, wholeRun, "positions %d and %d swapped", i, j)
			vs[i], vs[j] = vs[j], vs[i]
		}
	}
	return len(vs) * (len(vs) - 1) / 2
}

// reshapes checks every rotation of g, its reversal, every truncation
// (at g's minimum length and at none) and, at each of the first 30
// positions, a duplicate of each of the first 32 vertices inserted
// there.
func (g *golden) reshapes(t *testing.T) int {
	t.Helper()
	cases := 0
	for r := range g.vs {
		g.check(t, slices.Concat(g.vs[r:], g.vs[:r]), g.minLen, allRuns, "rotated by %d", r)
		cases++
	}
	reversed := slices.Clone(g.vs)
	slices.Reverse(reversed)
	g.check(t, reversed, g.minLen, allRuns, "reversed")
	cases++
	for l := 0; l <= len(g.vs); l++ {
		for _, minLen := range []int{g.minLen, 0} {
			g.check(t, g.vs[:l:l], minLen, allRuns, "truncated to %d, minimum %d", l, minLen)
			cases++
		}
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 32; j++ {
			g.check(t, slices.Insert(slices.Clone(g.vs), i, g.vs[j]), g.minLen, allRuns, "vertex %d inserted at %d", j, i)
			cases++
		}
	}
	return cases
}

// allVertices lists the vertices of S_n in rank order.
func allVertices(n int) []perm.Code {
	out := make([]perm.Code, perm.Factorial(n))
	for r := range out {
		out[r] = perm.UnrankCode(n, r)
	}
	return out
}

// TestVerifierExhaustiveS5S6 runs the exhaustive differential over the
// golden rings and paths of S_5 and S_6 (10 rings, 38 paths): every
// substitution of one position by every vertex of S_n and every
// transposition on every S_5 ring and path and on one S_6 ring at the
// full fault budget, and the reshapes on all of them; then sampled
// substitutions around the first page boundary of a golden S_8 ring.
// -short runs S_5 only. The cases are independent and share only the
// read-only fault sets, so they run as parallel subtests, the S_6
// ring's substitutions split by position parity: nearly all the time
// goes to the reference's maps, which take the S_6 ring's 771,726
// cases about 75 s on one core.
func TestVerifierExhaustiveS5S6(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	keep := func(n int) bool { return n >= 5 && n <= maxN }
	goldens := append(loadGoldens(t, "golden_rings.json", keep), loadGoldens(t, "golden_paths.json", keep)...)
	for i := range goldens {
		g := &goldens[i]
		run := func(family string, f func(t *testing.T) int) {
			t.Run(g.name+"/"+family, func(t *testing.T) {
				t.Parallel()
				t.Logf("%d cases", f(t))
			})
		}
		run("reshapes", g.reshapes)
		if g.n != 5 && g.name != "n6-v3-s604" {
			continue
		}
		for parity, name := range []string{"substitutions-even", "substitutions-odd"} {
			var positions []int
			for p := parity; p < len(g.vs); p += 2 {
				positions = append(positions, p)
			}
			run(name, func(t *testing.T) int { return g.substitutions(t, positions, allVertices(g.n)) })
		}
		run("transpositions", g.transpositions)
	}
	if !testing.Short() {
		t.Run("n8-page-boundary", func(t *testing.T) {
			t.Parallel()
			testPageBoundary(t)
		})
	}
}

// testPageBoundary substitutes, at 16 positions spread over the golden
// S_8 ring with five faults, every vertex whose bit lies in the block
// runs either side of the bitset's first page boundary (runs 1022 to
// 1025 under the P the verifier learns from the ring) and every fault.
// A substituted vertex is rarely adjacent to its neighbours, so the
// verifier looks its bit up in the page it lands in: the vertices of
// the two runs either side of the boundary, the faults — which a page
// holds from its allocation — and the vertices visited before each
// position all meet the page arithmetic there.
func testPageBoundary(t *testing.T) {
	t.Helper()
	gs := loadGoldens(t, "golden_rings.json", func(n int) bool { return n == 8 })
	var g *golden
	for i := range gs {
		if gs[i].name == "n8-v5-s804" {
			g = &gs[i]
		}
	}
	if g == nil {
		t.Fatal("no golden n8-v5-s804")
	}
	dims := check.LearnedDims(g.n, g.vs)
	first := check.PageBits / 24 // the first page's block runs
	var subs []perm.Code
	pages := map[int]bool{}
	for _, v := range slices.Concat(g.vs, g.fs.Vertices()) {
		ix := check.IndexOf(g.n, dims, v)
		if run := ix / 24; run >= first-2 && run < first+2 {
			subs = append(subs, v)
		}
		if g.fs.HasVertex(v) {
			subs = append(subs, v)
			pages[ix/check.PageBits] = true
		}
	}
	if len(subs) != 4*24+g.fs.NumVertices() || len(pages) < 2 {
		t.Fatalf("%d substitutes, faults on %d pages; want 4 runs of 24 plus the %d faults, on both pages", len(subs), len(pages), g.fs.NumVertices())
	}
	var positions []int
	for p := 0; p < 16; p++ {
		positions = append(positions, 25+p*(len(g.vs)-26)/15)
	}
	cases := g.substitutions(t, positions, subs)
	t.Logf("%s: %d page-boundary cases", g.name, cases)
}
