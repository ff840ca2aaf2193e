package superring

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/substar"
)

func weightFor(fs *faults.Set) func(substar.Pattern) int {
	return func(p substar.Pattern) int { return fs.CountIn(p) }
}

func TestNewValidation(t *testing.T) {
	kids := substar.Whole(5).Partition(3)
	if _, err := New(5, kids); err != nil {
		t.Fatalf("valid K_5 ring rejected: %v", err)
	}
	if _, err := New(5, kids[:2]); err == nil {
		t.Fatal("2-vertex ring accepted")
	}
	// Mixed orders.
	bad := append([]substar.Pattern{}, kids[:4]...)
	bad = append(bad, kids[4].Fix(2, 3))
	if _, err := New(5, bad); err == nil {
		t.Fatal("mixed-order ring accepted")
	}
}

// TestValidateDistinctness: New checks only dimension, order and the
// superedges, so a ring that revisits a supervertex passes it, and
// Validate must reject it. The rings are hand-built from order-4
// supervertices differing at position n. At n = 16 their 16!/4! rank
// space is far larger than the ring, and Validate must not allocate a
// bitset over it: the least of five calls after a warm-up allocates at
// most 1 KiB.
func TestValidateDistinctness(t *testing.T) {
	for _, n := range []int{5, 9, 16} {
		base := substar.Whole(n)
		for i := 5; i < n; i++ {
			base = base.Fix(i, uint8(i))
		}
		a, b, c := base.Fix(n, uint8(n)), base.Fix(n, 1), base.Fix(n, 2)
		twice, err := New(n, []substar.Pattern{a, b, a, b})
		if err != nil {
			t.Fatalf("n=%d: New rejected [A B A B]: %v", n, err)
		}
		want := "superring: supervertex " + a.String() + " occurs twice"
		if err := twice.Validate(); err == nil || err.Error() != want {
			t.Fatalf("n=%d: Validate([A B A B]) = %v, want %q", n, err, want)
		}
		short, err := New(n, []substar.Pattern{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		if err := short.Validate(); err != nil {
			t.Fatalf("n=%d: Validate([A B C]): %v", n, err)
		}
		if bytes := allocBytes(func() { _ = short.Validate() }); bytes > 1<<10 {
			t.Errorf("n=%d: Validate of a 3-supervertex ring allocated %d bytes", n, bytes)
		}
	}
}

// allocBytes returns the bytes one call of f allocates: the least of
// five measured calls after a warm-up, so that an allocation by another
// goroutine (a finalizer after a GC, say) is not counted.
func allocBytes(f func()) uint64 {
	f()
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestInitialStructure(t *testing.T) {
	for n := 5; n <= 8; n++ {
		r, err := Initial(n, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != n || r.Order() != n-1 || r.N() != n {
			t.Fatalf("Initial(S_%d): len=%d order=%d", n, r.Len(), r.Order())
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInitialSpreadsFaults(t *testing.T) {
	n := 6
	rng := rand.New(rand.NewSource(15))
	// Construct faults in three different children of the 2-partition.
	fs := faults.NewSet(n)
	for len(fs.Vertices()) < 3 {
		v := perm.UnrankCode(n, rng.Intn(perm.Factorial(n)))
		dup := false
		for _, f := range fs.Vertices() {
			if f.Symbol(2) == v.Symbol(2) {
				dup = true
			}
		}
		if !dup {
			fs.AddVertex(v)
		}
	}
	r, err := Initial(n, 2, Options{FaultCount: weightFor(fs), SpreadFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	w := weightFor(fs)
	if !r.P3(w) {
		t.Fatal("Initial did not separate faulty supervertices")
	}
}

func TestInitialSpreadUnsatisfiable(t *testing.T) {
	// 3 faulty children among 5 cannot be pairwise non-adjacent in a
	// 5-cycle.
	n := 5
	fs := faults.NewSet(n)
	for _, s := range []string{"21345", "31245", "41235"} { // symbols 2,3,4 at position 2? ensure distinct children
		fs.AddVertexString(s)
	}
	// The three faults have distinct symbols at position 3? Build so
	// they land in distinct children of the 3-partition.
	_, err := Initial(n, 3, Options{FaultCount: weightFor(fs), SpreadFaults: true})
	if err == nil {
		// Acceptable only if the faults happened to share children; make
		// sure they did not.
		kids := substar.Whole(n).Partition(3)
		faulty := 0
		for _, k := range kids {
			if fs.CountIn(k) > 0 {
				faulty++
			}
		}
		if faulty > 2 {
			t.Fatal("unsatisfiable spreading succeeded")
		}
	} else if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestRefineStructure(t *testing.T) {
	for n := 6; n <= 8; n++ {
		r, err := Initial(n, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		expectedLen := n
		for pos := 3; r.Order() > 4; pos++ {
			r, err = r.Refine(pos, Options{})
			if err != nil {
				t.Fatalf("S_%d refine at %d: %v", n, pos, err)
			}
			expectedLen *= r.Order() + 1
			if r.Len() != expectedLen {
				t.Fatalf("S_%d: ring length %d, want %d", n, r.Len(), expectedLen)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("S_%d after refine: %v", n, err)
			}
		}
		if r.Order() != 4 {
			t.Fatalf("S_%d: final order %d", n, r.Order())
		}
		// The discipline of first/last-two-connected makes (P2) hold at
		// every level, in particular the final one.
		if v := r.FirstP2Violation(); v != -1 {
			t.Fatalf("S_%d: (P2) violated at %d", n, v)
		}
	}
}

// TestRefineRealizesLemma1 closes the loop with Lemma 1: on a refined
// ring with (P2), partitioning any middle supervertex leaves every
// child connected to one of its ring neighbors.
func TestRefineRealizesLemma1(t *testing.T) {
	n := 6
	r, err := Initial(n, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err = r.Refine(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// r is an R5; check Lemma 1 for the upcoming 4-partition.
	for i := 0; i < r.Len(); i++ {
		u, v, w := r.At(i-1), r.At(i), r.At(i+1)
		if !Lemma1ChildrenConnected(u, v, w, 4) {
			t.Fatalf("Lemma 1 fails at supervertex %d", i)
		}
	}
}

func TestRefineWithFaultDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 6; n <= 8; n++ {
		fs := faults.RandomVertices(n, faults.MaxTolerated(n), rng)
		positions, _ := fs.SeparatingPositions()
		w := weightFor(fs)
		r, err := Initial(n, positions[0], Options{FaultCount: w})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(positions); j++ {
			opts := Options{FaultCount: w}
			if j == len(positions)-1 {
				opts.SpreadFaults = true
				opts.HealthyJunctions = true
			}
			r, err = r.Refine(positions[j], opts)
			if err != nil {
				t.Fatalf("S_%d refine %d: %v", n, j, err)
			}
		}
		if !r.P1(w) {
			t.Fatalf("S_%d: (P1) violated", n)
		}
		if !r.P2() {
			t.Fatalf("S_%d: (P2) violated", n)
		}
		if !r.P3(w) {
			t.Fatalf("S_%d: (P3) violated", n)
		}
	}
}

// TestRefineWeighsEachChildOnce counts FaultCount calls: a refinement
// that spreads faults and keeps junctions healthy weighs every child
// of every clique exactly once, however many orderings the junction
// search probes, and one that does neither never calls it.
func TestRefineWeighsEachChildOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 6; n <= 8; n++ {
		fs := faults.RandomVertices(n, faults.MaxTolerated(n), rng)
		positions, _ := fs.SeparatingPositions()
		w := weightFor(fs)
		calls := 0
		counting := func(p substar.Pattern) int {
			calls++
			return w(p)
		}
		r, err := Initial(n, positions[0], Options{FaultCount: w})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(positions); j++ {
			weigh := j == len(positions)-1
			opts := Options{FaultCount: counting, SpreadFaults: weigh, HealthyJunctions: weigh}
			calls = 0
			if r, err = r.Refine(positions[j], opts); err != nil {
				t.Fatalf("S_%d refine %d: %v", n, j, err)
			}
			want := 0
			if weigh {
				want = r.Len()
			}
			if calls != want {
				t.Errorf("S_%d refine %d: %d FaultCount calls, want %d (one per child)", n, j, calls, want)
			}
		}
		if !r.P3(w) {
			t.Fatalf("S_%d: (P3) violated", n)
		}
	}
}

func TestRefineExclude(t *testing.T) {
	n := 6
	r, err := Initial(n, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Exclude one child during the refinement at position 3.
	var excluded substar.Pattern
	found := false
	exclude := func(p substar.Pattern) bool {
		if found {
			return p == excluded
		}
		if p.R() == 4 {
			excluded = p
			found = true
			return true
		}
		return false
	}
	r2, err := r.Refine(3, Options{Exclude: exclude})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 6*5-1 {
		t.Fatalf("ring length %d, want %d", r2.Len(), 6*5-1)
	}
	for _, v := range r2.Vertices() {
		if v == excluded {
			t.Fatal("excluded supervertex present")
		}
	}
	if err := r2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAtModularIndexing(t *testing.T) {
	r, err := Initial(5, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.At(-1) != r.At(r.Len()-1) || r.At(r.Len()) != r.At(0) {
		t.Fatal("modular indexing broken")
	}
}

func TestP2Detection(t *testing.T) {
	// A ring of siblings (all difs at the same position) always has
	// (P2): symbols at the shared dif are pairwise distinct.
	r, err := Initial(5, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.P2() {
		t.Fatal("sibling ring lacks (P2)")
	}
}

func TestP1P3Detection(t *testing.T) {
	r, err := Initial(5, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Weight function marking two adjacent supervertices faulty.
	vs := r.Vertices()
	w := func(p substar.Pattern) int {
		if p == vs[0] || p == vs[1] {
			return 1
		}
		return 0
	}
	if r.P3(w) {
		t.Fatal("adjacent faulty supervertices passed (P3)")
	}
	heavy := func(p substar.Pattern) int {
		if p == vs[0] {
			return 2
		}
		return 0
	}
	if r.P1(heavy) {
		t.Fatal("two-fault supervertex passed (P1)")
	}
	if !r.P1(func(substar.Pattern) int { return 1 }) {
		t.Fatal("one-fault supervertices failed (P1)")
	}
}

func TestOrderCliqueConstraints(t *testing.T) {
	parent := substar.Whole(6).Partition(2)[0] // order-5 supervertex
	kids := parent.Partition(3)                // five order-4 children
	entry, exit := kids[0], kids[4]
	blockedPrev, blockedNext := kids[1], kids[3]
	path, ok := orderClique(nil, kids, nil, entry, exit, blockedPrev, blockedNext)
	if !ok {
		t.Fatal("feasible clique rejected")
	}
	if path[0] != entry || path[len(path)-1] != exit {
		t.Fatal("endpoints wrong")
	}
	if path[1] == blockedPrev {
		t.Fatal("second child blocked toward previous supervertex")
	}
	if path[len(path)-2] == blockedNext {
		t.Fatal("second-to-last child blocked toward next supervertex")
	}
	// entry == exit impossible.
	if _, ok := orderClique(nil, kids, nil, entry, entry, blockedPrev, blockedNext); ok {
		t.Fatal("entry == exit accepted")
	}
	// entry blocked toward previous is invalid.
	if _, ok := orderClique(nil, kids, nil, blockedPrev, exit, blockedPrev, blockedNext); ok {
		t.Fatal("blocked entry accepted")
	}
}
