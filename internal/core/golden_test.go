package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/sim"
)

// updateGolden regenerates the golden files from the current engine:
//
//	go test ./internal/core -run 'TestGolden' -update-golden
//
// Only do this for a deliberate change of the constructed rings: the
// committed files were captured from the materialized ring form this
// engine's skeleton-only form replaced, and pin that the replacement
// emits the same rings byte for byte.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.json from the current engine")

const (
	goldenRingsFile    = "testdata/golden_rings.json"
	goldenCampaignFile = "testdata/golden_campaign.json"
)

// goldenRing pins one ring: its length and the SHA-256 of its vertex
// sequence, one vertex per line in permutation notation (the format of
// starring -print).
type goldenRing struct {
	Length int    `json:"length"`
	SHA256 string `json:"sha256"`
}

// goldenRepair is one step of a case's seeded repair sequence.
type goldenRepair struct {
	Vertex  string `json:"vertex"`
	Outcome string `json:"outcome"`
	goldenRing
}

// goldenCase is one embedding input with the ring it produced and the
// rings after each repair of its seeded repair sequence.
type goldenCase struct {
	Name          string         `json:"name"`
	N             int            `json:"n"`
	Fv            []string       `json:"fv"`
	Fe            [][2]string    `json:"fe,omitempty"`
	Opportunistic bool           `json:"opportunistic,omitempty"`
	Ring          goldenRing     `json:"ring"`
	Repairs       []goldenRepair `json:"repairs,omitempty"`
}

// ringDigest hashes a vertex sequence in starring -print's format.
func ringDigest(n int, next func() (perm.Code, bool)) goldenRing {
	h := sha256.New()
	count := 0
	for {
		v, ok := next()
		if !ok {
			break
		}
		fmt.Fprintln(h, v.StringN(n))
		count++
	}
	return goldenRing{Length: count, SHA256: hex.EncodeToString(h.Sum(nil))}
}

// goldenSpec is a generator input: a seeded fault set and a flag for
// the opportunistic extension.
type goldenSpec struct {
	name          string
	n             int
	fs            *faults.Set
	opportunistic bool
	seed          int64
}

// goldenSpecs lists the pinned inputs: five seeded vertex-fault sets per
// n = 3..8 with |Fv| spread over 0..n-3, one mixed vertex/edge set and
// one opportunistic set whose faults straddle the bipartition.
func goldenSpecs() []goldenSpec {
	var specs []goldenSpec
	for n := 3; n <= 8; n++ {
		budget := faults.MaxTolerated(n)
		for i := 0; i < 5; i++ {
			k := i * budget / 4
			if i == 4 {
				k = budget
			}
			seed := int64(100*n + i)
			rng := rand.New(rand.NewSource(seed))
			specs = append(specs, goldenSpec{
				name: fmt.Sprintf("n%d-v%d-s%d", n, k, seed), n: n,
				fs: faults.RandomVertices(n, k, rng), seed: seed,
			})
		}
	}
	rng := rand.New(rand.NewSource(7001))
	specs = append(specs, goldenSpec{name: "n7-mixed", n: 7, fs: faults.Mixed(7, 1, 2, rng), seed: 7001})
	for seed := int64(7002); ; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := faults.RandomVertices(7, 3, rng)
		sides := 0
		for _, v := range fs.Vertices() {
			sides |= 1 << uint(v.Parity(7))
		}
		if sides == 3 {
			specs = append(specs, goldenSpec{name: "n7-opportunistic", n: 7, fs: fs, opportunistic: true, seed: seed})
			break
		}
	}
	return specs
}

func parseVertex(t *testing.T, n int, s string) perm.Code {
	t.Helper()
	p, err := perm.Parse(s)
	if err != nil || p.N() != n {
		t.Fatalf("golden vertex %q is not in S_%d", s, n)
	}
	return perm.Pack(p)
}

// faultSet rebuilds a case's fault set from its golden strings.
func (gc goldenCase) faultSet(t *testing.T) *faults.Set {
	t.Helper()
	fs := faults.NewSet(gc.N)
	for _, s := range gc.Fv {
		if err := fs.AddVertex(parseVertex(t, gc.N, s)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range gc.Fe {
		if err := fs.AddEdge(parseVertex(t, gc.N, e[0]), parseVertex(t, gc.N, e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// generateGolden embeds every spec and walks a seeded repair sequence
// up to the fault budget, alternating on-ring victims with uniformly
// drawn vertices (which may be spares).
func generateGolden(t *testing.T) []goldenCase {
	var out []goldenCase
	for _, sp := range goldenSpecs() {
		n := sp.n
		gc := goldenCase{Name: sp.name, N: n, Opportunistic: sp.opportunistic}
		for _, v := range sp.fs.Vertices() {
			gc.Fv = append(gc.Fv, v.StringN(n))
		}
		for _, e := range sp.fs.Edges() {
			gc.Fe = append(gc.Fe, [2]string{e.U.StringN(n), e.V.StringN(n)})
		}
		e, err := core.NewEmbedder(n, core.Config{Opportunistic: sp.opportunistic})
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Embed(sp.fs)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		gc.Ring = ringDigest(n, p.Cursor().Next)
		rng := rand.New(rand.NewSource(sp.seed + 1))
		for step := 0; sp.fs.NumVertices()+sp.fs.NumEdges()+len(gc.Repairs) < faults.MaxTolerated(n); step++ {
			var v perm.Code
			if step%2 == 0 {
				v = p.RingAt(rng.Intn(p.RingLen()))
			} else {
				v = perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
				if p.Faulty(v) {
					continue
				}
			}
			rep, err := p.Repair(v)
			if err != nil {
				t.Fatalf("%s: repair %s: %v", sp.name, v.StringN(n), err)
			}
			gc.Repairs = append(gc.Repairs, goldenRepair{
				Vertex: v.StringN(n), Outcome: rep.Outcome.String(),
				goldenRing: ringDigest(n, p.Cursor().Next),
			})
		}
		out = append(out, gc)
	}
	return out
}

// goldenCampaign is the simulator campaign pinned by
// testdata/golden_campaign.json: every hop, victim draw and repair of
// the machine goes through the plan's RingAt/RingLen.
var goldenCampaign = sim.CampaignConfig{
	Machine:     sim.Config{N: 6, HopCost: 1, ReembedCostPerBlock: 4},
	Failures:    3,
	LapsBetween: 2,
	Seed:        5,
}

func writeGolden(t *testing.T, path string, v interface{}) {
	t.Helper()
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, path string, v interface{}) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestGoldenRings replays every golden input through the engine and
// demands the pinned rings byte for byte, before and after
// each repair. For n <= 7 it also probes RingAt at every position and
// OnRing at every vertex of S_n against the cursor's output, which
// exercises the skeleton's segment offsets, its pattern-rank index and
// its fault side table on every vertex, after the embed and after
// every repair — the S_7 mixed-fault and opportunistic cases included.
func TestGoldenRings(t *testing.T) {
	if *updateGolden {
		writeGolden(t, goldenRingsFile, generateGolden(t))
	}
	var cases []goldenCase
	readGolden(t, goldenRingsFile, &cases)
	if len(cases) == 0 {
		t.Fatal("no golden cases")
	}
	for _, gc := range cases {
		if gc.N == 8 && testing.Short() {
			continue
		}
		t.Run(gc.Name, func(t *testing.T) {
			n := gc.N
			e, err := core.NewEmbedder(n, core.Config{Opportunistic: gc.Opportunistic})
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.Embed(gc.faultSet(t))
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenPlan(t, p, gc.Ring, "embed")
			for i, r := range gc.Repairs {
				rep, err := p.Repair(parseVertex(t, n, r.Vertex))
				if err != nil {
					t.Fatalf("repair %d (%s): %v", i, r.Vertex, err)
				}
				if rep.Outcome.String() != r.Outcome {
					t.Fatalf("repair %d (%s): outcome %v, golden %s", i, r.Vertex, rep.Outcome, r.Outcome)
				}
				checkGoldenPlan(t, p, r.goldenRing, fmt.Sprintf("repair %d (%s)", i, r.Vertex))
			}
		})
	}
}

// checkGoldenPlan compares the plan's cursor output with a golden ring
// and, for n <= 7, cross-checks the random-access accessors.
func checkGoldenPlan(t *testing.T, p *core.Plan, want goldenRing, what string) {
	t.Helper()
	n := p.N()
	c := p.Cursor()
	var ring []perm.Code
	got := ringDigest(n, func() (perm.Code, bool) {
		v, ok := c.Next()
		if ok {
			ring = append(ring, v)
		}
		return v, ok
	})
	if err := c.Err(); err != nil {
		t.Fatalf("%s: cursor: %v", what, err)
	}
	if got != want {
		t.Fatalf("%s: ring %d vertices sha256 %s, golden %d vertices sha256 %s",
			what, got.Length, got.SHA256, want.Length, want.SHA256)
	}
	if p.RingLen() != want.Length {
		t.Fatalf("%s: RingLen %d, golden %d", what, p.RingLen(), want.Length)
	}
	if n > 7 {
		return
	}
	on := make(map[perm.Code]bool, len(ring))
	for i, v := range ring {
		if p.RingAt(i) != v {
			t.Fatalf("%s: RingAt(%d) = %s, cursor %s", what, i, p.RingAt(i).StringN(n), v.StringN(n))
		}
		on[v] = true
	}
	for r := 0; r < perm.Factorial(n); r++ {
		v := perm.UnrankCode(n, r)
		if p.OnRing(v) != on[v] {
			t.Fatalf("%s: OnRing(%s) = %v, cursor says %v", what, v.StringN(n), p.OnRing(v), on[v])
		}
	}
}

// TestGoldenCampaign pins a whole simulator campaign: the report of a
// machine driven through seeded failures must match the golden one
// field for field.
func TestGoldenCampaign(t *testing.T) {
	if *updateGolden {
		rep, err := sim.RunCampaign(goldenCampaign)
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, goldenCampaignFile, rep)
	}
	var want sim.CampaignReport
	readGolden(t, goldenCampaignFile, &want)
	got, err := sim.RunCampaign(goldenCampaign)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(&want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("campaign diverged from golden:\n got  %s\n want %s", gotJSON, wantJSON)
	}
}

// goldenPathsFile pins EmbedPath: no ring golden covers the s-t chain
// pipeline, which refines and routes an open ring of supervertices.
const goldenPathsFile = "testdata/golden_paths.json"

// goldenPathCase is one EmbedPath input with the path it produced.
type goldenPathCase struct {
	Name       string      `json:"name"`
	N          int         `json:"n"`
	Fv         []string    `json:"fv"`
	Fe         [][2]string `json:"fe,omitempty"`
	From       string      `json:"from"`
	To         string      `json:"to"`
	BestEffort bool        `json:"best_effort,omitempty"`
	Path       goldenRing  `json:"path"`
}

// goldenPathSpecs lists the pinned path inputs. Each fault set gets a
// same-side and an opposite-side endpoint pair: two seeded vertex-fault
// sets per |Fv| = 0..n-3 for n = 5..7, one for n = 8, three at n = 9,
// best-effort sets one and two vertex faults past the budget for
// n = 5..8 and one more at n = 6, and one mixed vertex/edge set.
func goldenPathSpecs() []goldenPathCase {
	var specs []goldenPathCase
	add := func(name string, n int, fs *faults.Set, bestEffort bool, rng *rand.Rand) {
		for _, same := range []bool{true, false} {
			s, t := goldenEndpoints(rng, n, fs, same)
			side := "opp"
			if same {
				side = "same"
			}
			gc := goldenPathCase{
				Name: name + "-" + side, N: n, BestEffort: bestEffort,
				From: s.StringN(n), To: t.StringN(n),
			}
			for _, v := range fs.Vertices() {
				gc.Fv = append(gc.Fv, v.StringN(n))
			}
			for _, e := range fs.Edges() {
				gc.Fe = append(gc.Fe, [2]string{e.U.StringN(n), e.V.StringN(n)})
			}
			specs = append(specs, gc)
		}
	}
	for n := 5; n <= 9; n++ {
		budget := faults.MaxTolerated(n)
		sets := 2
		if n >= 8 {
			sets = 1
		}
		for k := 0; k <= budget; k++ {
			if n == 9 && k%3 != 0 {
				continue
			}
			for i := 0; i < sets; i++ {
				seed := int64(1000*n + 10*k + i)
				rng := rand.New(rand.NewSource(seed))
				add(fmt.Sprintf("n%d-v%d-s%d", n, k, seed), n, faults.RandomVertices(n, k, rng), false, rng)
			}
		}
		if n == 9 {
			continue
		}
		for extra := 1; extra <= 2; extra++ {
			seed := int64(1000*n + 900 + extra)
			rng := rand.New(rand.NewSource(seed))
			add(fmt.Sprintf("n%d-v%d-besteffort-s%d", n, budget+extra, seed), n,
				faults.RandomVertices(n, budget+extra, rng), true, rng)
		}
	}
	// The same-side pair of this set fails the strict final refinement,
	// so the chain builder retries it relaxed.
	rng := rand.New(rand.NewSource(7002))
	add("n6-v5-besteffort-s7002", 6, faults.RandomVertices(6, 5, rng), true, rng)
	rng = rand.New(rand.NewSource(7101))
	add("n7-mixed-s7101", 7, faults.Mixed(7, 2, 2, rng), false, rng)
	return specs
}

// goldenEndpoints draws two distinct healthy vertices on the same or on
// opposite sides of the bipartition.
func goldenEndpoints(rng *rand.Rand, n int, fs *faults.Set, sameSide bool) (perm.Code, perm.Code) {
	total := perm.Factorial(n)
	for {
		s := perm.UnrankCode(n, rng.Intn(total))
		t := perm.UnrankCode(n, rng.Intn(total))
		if s != t && !fs.HasVertex(s) && !fs.HasVertex(t) && (s.Parity(n) == t.Parity(n)) == sameSide {
			return s, t
		}
	}
}

// embedGoldenPath runs one path case and digests the path.
func embedGoldenPath(t *testing.T, gc goldenPathCase) goldenRing {
	t.Helper()
	n := gc.N
	fs := goldenCase{N: n, Fv: gc.Fv, Fe: gc.Fe}.faultSet(t)
	plan, err := core.EmbedPath(n, fs, parseVertex(t, n, gc.From), parseVertex(t, n, gc.To),
		core.Config{BestEffort: gc.BestEffort})
	if err != nil {
		t.Fatalf("%s: %v", gc.Name, err)
	}
	return ringDigest(n, plan.Cursor().Next)
}

// TestGoldenPaths replays every golden path input through EmbedPath and
// demands the pinned path byte for byte.
func TestGoldenPaths(t *testing.T) {
	if *updateGolden {
		cases := goldenPathSpecs()
		for i := range cases {
			cases[i].Path = embedGoldenPath(t, cases[i])
		}
		writeGolden(t, goldenPathsFile, cases)
	}
	var cases []goldenPathCase
	readGolden(t, goldenPathsFile, &cases)
	if len(cases) == 0 {
		t.Fatal("no golden path cases")
	}
	for _, gc := range cases {
		if gc.N >= 8 && testing.Short() {
			continue
		}
		t.Run(gc.Name, func(t *testing.T) {
			if got := embedGoldenPath(t, gc); got != gc.Path {
				t.Fatalf("path %d vertices sha256 %s, golden %d vertices sha256 %s",
					got.Length, got.SHA256, gc.Path.Length, gc.Path.SHA256)
			}
		})
	}
}
