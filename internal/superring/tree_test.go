package superring

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/substar"
)

// refineAll refines r at each of positions in turn, with opts at every
// level but the last and last there. When the last refinement fails
// and relax is set, it retries that level with opts, as the chain
// builder does.
func refineAll(r *Ring, positions []int, opts, last Options, relax bool) (*Ring, error) {
	for j, pos := range positions {
		o := opts
		if j == len(positions)-1 {
			o = last
		}
		next, err := r.Refine(pos, o)
		if err != nil && relax && j == len(positions)-1 {
			next, err = r.Refine(pos, opts)
		}
		if err != nil {
			return nil, err
		}
		r = next
	}
	return r, nil
}

// treeRings builds the four kinds of R4 of S_n that carry a refinement
// record: the paper's R4 at the full fault budget, best effort's
// relaxed R4 past it, an open chain refined as the path builder refines
// it, and a Latifi ring whose Exclude drops a supervertex. The last
// result is the Latifi ring's excluded pattern.
func treeRings(t *testing.T, n int, rng *rand.Rand) (map[string]*Ring, substar.Pattern) {
	t.Helper()
	rings := map[string]*Ring{}

	fs := faults.RandomVertices(n, faults.MaxTolerated(n), rng)
	positions, _ := fs.SeparatingPositions()
	w := weightFor(fs)
	mid := Options{FaultCount: w}
	final := Options{FaultCount: w, SpreadFaults: true, HealthyJunctions: true}
	first := mid
	if n == 5 {
		first = final
	}
	r, err := Initial(n, positions[0], first)
	if err == nil {
		r, err = refineAll(r, positions[1:], mid, final, false)
	}
	if err != nil {
		t.Fatalf("n=%d paper R4: %v", n, err)
	}
	rings["paper"] = r

	past := faults.RandomVertices(n, n-2, rng)
	positions, _ = past.SeparatingPositions()
	relaxed := Options{FaultCount: weightFor(past)}
	if r, err = Initial(n, positions[0], relaxed); err == nil {
		r, err = refineAll(r, positions[1:], relaxed, relaxed, false)
	}
	if err != nil {
		t.Fatalf("n=%d relaxed R4: %v", n, err)
	}
	rings["relaxed"] = r

	s, tt, _ := chainAnchors(t, n, rng, fs)
	positions, _, err = fs.SeparatingPositionsSplitting(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := InitialChain(n, positions[0], s, tt, first)
	if err == nil {
		c, err = refineAll(c, positions[1:], mid, final, true)
	}
	if err != nil {
		t.Fatalf("n=%d chain: %v", n, err)
	}
	rings["chain"] = c

	// Latifi's cluster is a supervertex of the partition sequence: the
	// symbols of a random vertex at its first fixed positions.
	positions = rng.Perm(n - 1)[:n-4]
	for i := range positions {
		positions[i] += 2
	}
	f := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
	cluster := substar.Whole(n)
	for _, pos := range positions[:1+rng.Intn(n-4)] {
		cluster = cluster.Fix(pos, f.Symbol(pos))
	}
	exclude := Options{Exclude: func(p substar.Pattern) bool { return p == cluster }}
	if r, err = Initial(n, positions[0], exclude); err == nil {
		r, err = refineAll(r, positions[1:], exclude, exclude, false)
	}
	if err != nil {
		t.Fatalf("n=%d Latifi ring: %v", n, err)
	}
	rings["latifi"] = r
	return rings, cluster
}

// TestLocateMatchesFlatRing holds Tree.Locate to the flat ring at
// n = 5..8: on each kind of ring every vertex of S_n is located at the
// index of the block that holds it, and on the Latifi ring every vertex
// of the excluded cluster, and no other, at −1.
func TestLocateMatchesFlatRing(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 5; n <= 8; n++ {
		rings, cluster := treeRings(t, n, rng)
		for name, r := range rings {
			tree := r.Tree()
			if tree == nil {
				t.Fatalf("n=%d %s: no refinement record", n, name)
			}
			want := make(map[perm.Code]int, perm.Factorial(n))
			var vs []perm.Code
			for k, p := range r.Vertices() {
				vs = p.Vertices(vs[:0])
				for _, v := range vs {
					want[v] = k
				}
			}
			for rank := 0; rank < perm.Factorial(n); rank++ {
				v := perm.UnrankCode(n, rank)
				k, ok := want[v]
				if !ok {
					k = -1
					if name != "latifi" || !cluster.Contains(v) {
						t.Fatalf("n=%d %s: no block holds %s", n, name, v.StringN(n))
					}
				}
				if got := tree.Locate(v); got != k {
					t.Fatalf("n=%d %s: Locate(%s) = %d, the ring holds it in block %d", n, name, v.StringN(n), got, k)
				}
			}
			if name == "latifi" && len(want) != perm.Factorial(n)-perm.Factorial(cluster.R()) {
				t.Fatalf("n=%d: the Latifi ring holds %d vertices with an order-%d cluster excluded", n, len(want), cluster.R())
			}
		}
	}
}

// TestLocateAllocs: the walk allocates nothing.
func TestLocateAllocs(t *testing.T) {
	r, err := Initial(8, 2, Options{})
	if err == nil {
		r, err = refineAll(r, []int{3, 4, 5}, Options{}, Options{}, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	v := perm.UnrankCode(8, 12345)
	if allocs := testing.AllocsPerRun(100, func() { r.Tree().Locate(v) }); allocs != 0 {
		t.Errorf("Locate allocates %.1f objects per call", allocs)
	}
}

// TestNewCarriesNoTree: a ring from New has no record, and neither does
// a refinement of it; a record is written only by the refinements that
// built the ring.
func TestNewCarriesNoTree(t *testing.T) {
	r, err := New(6, substar.Whole(6).Partition(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Tree() != nil {
		t.Fatal("a ring from New carries a refinement record")
	}
	if r, err = r.Refine(3, Options{}); err != nil {
		t.Fatal(err)
	}
	if r.Tree() != nil {
		t.Fatal("a refinement of a ring from New carries a record")
	}
}

// TestTreeBudget: the record costs at most one byte per block of the
// R4, fault-free at n = 7..9; it logs the bytes per block. (At n = 6
// the level headers alone are 24 bytes for 30 blocks.)
func TestTreeBudget(t *testing.T) {
	for n := 7; n <= 9; n++ {
		r, err := Initial(n, 2, Options{})
		if err == nil {
			positions := make([]int, 0, n-5)
			for pos := 3; len(positions) < n-5; pos++ {
				positions = append(positions, pos)
			}
			r, err = refineAll(r, positions, Options{}, Options{}, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		b := r.Tree().Bytes()
		t.Logf("n=%d: %d bytes for %d blocks, %.2f per block", n, b, r.Len(), float64(b)/float64(r.Len()))
		if b > r.Len() {
			t.Errorf("n=%d: the record holds %d bytes for %d blocks", n, b, r.Len())
		}
	}
}

// FuzzLocate holds Tree.Locate to a scan of the flat ring on random
// R4s: a dimension n in [5,8], partition positions in a random order,
// a random fault set of up to n−1 vertices, and by mode the final
// level's fault discipline, an open chain between random anchors, and
// an Exclude that drops a random supervertex. A build the options make
// unsatisfiable is skipped. Every vertex is checked at n <= 6, and 256
// random ones above.
func FuzzLocate(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0))
	f.Add(uint8(1), int64(2), uint8(1))
	f.Add(uint8(2), int64(3), uint8(2))
	f.Add(uint8(3), int64(4), uint8(4))
	f.Add(uint8(1), int64(5), uint8(3))
	f.Fuzz(func(t *testing.T, nSel uint8, seed int64, mode uint8) {
		n := 5 + int(nSel)%4
		rng := rand.New(rand.NewSource(seed))
		positions := rng.Perm(n - 1)[:n-4]
		for i := range positions {
			positions[i] += 2
		}
		fs := faults.RandomVertices(n, rng.Intn(n), rng)
		opts := Options{FaultCount: weightFor(fs)}
		last := opts
		if mode&1 != 0 {
			last.SpreadFaults, last.HealthyJunctions = true, true
		}
		chain := mode&4 != 0
		var cluster substar.Pattern
		if mode&2 != 0 && !chain {
			v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			cluster = substar.Whole(n)
			for _, pos := range positions[:1+rng.Intn(n-4)] {
				cluster = cluster.Fix(pos, v.Symbol(pos))
			}
			exclude := func(p substar.Pattern) bool { return p == cluster }
			opts.Exclude, last.Exclude = exclude, exclude
		}
		first := opts
		if n == 5 {
			first = last
		}
		var r *Ring
		var err error
		if chain {
			s := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			tt := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
			if s.Symbol(positions[0]) == tt.Symbol(positions[0]) {
				return
			}
			r, err = InitialChain(n, positions[0], s, tt, first)
		} else {
			r, err = Initial(n, positions[0], first)
		}
		if err == nil {
			r, err = refineAll(r, positions[1:], opts, last, false)
		}
		if err != nil {
			return
		}
		scan := func(v perm.Code) int {
			for k, p := range r.Vertices() {
				if p.Contains(v) {
					return k
				}
			}
			return -1
		}
		probe := func(v perm.Code) {
			if got, want := r.Tree().Locate(v), scan(v); got != want {
				t.Fatalf("n=%d positions %v mode %03b: Locate(%s) = %d, the flat ring says %d", n, positions, mode, v.StringN(n), got, want)
			}
		}
		if n <= 6 {
			for rank := 0; rank < perm.Factorial(n); rank++ {
				probe(perm.UnrankCode(n, rank))
			}
			return
		}
		for i := 0; i < 256; i++ {
			probe(perm.UnrankCode(n, rng.Intn(perm.Factorial(n))))
		}
	})
}
