package pathsearch

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/substar"
)

// randomBlockPattern produces a random order-4 pattern in S_n.
func randomBlockPattern(rng *rand.Rand, n int) substar.Pattern {
	p := substar.Whole(n)
	for p.R() > 4 {
		free := p.FreePositions(nil)
		pos := free[rng.Intn(len(free)-1)+1]
		syms := p.FreeSymbols(nil)
		p = p.Fix(pos, syms[rng.Intn(len(syms))])
	}
	return p
}

func TestNewBlockValidation(t *testing.T) {
	if _, err := NewBlock(substar.Whole(5)); err == nil {
		t.Fatal("order-5 pattern accepted")
	}
	if _, err := NewBlock(substar.Whole(4)); err != nil {
		t.Fatalf("whole S4 rejected: %v", err)
	}
	// Every route test that Hamiltonian does not answer computes a
	// Block on the stack from the block's entry; it stays at three words.
	if size := unsafe.Sizeof(Block{}); size > 24 {
		t.Errorf("Block is %d bytes, want <= 24", size)
	}
}

// orderFourPatterns lists every order-4 pattern of S_n for n = 6: two
// fixed positions among 2..6, holding two distinct symbols.
func orderFourPatterns(t *testing.T) []substar.Pattern {
	const n = 6
	var out []substar.Pattern
	for a := 2; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			for x := uint8(1); x <= n; x++ {
				for y := uint8(1); y <= n; y++ {
					if x == y {
						continue
					}
					syms := make([]uint8, n)
					syms[a-1], syms[b-1] = x, y
					pat, err := substar.FromSymbols(n, syms)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, pat)
				}
			}
		}
	}
	return out
}

// TestBlockAtMatchesPattern checks the isomorphism computed from one
// vertex against its pattern, over every order-4 pattern of S_6: every
// member yields the same isomorphism as NewBlock, membership is the
// pattern's on every vertex of S_6, ToCanon is a bijection of the
// block onto 0..23, and FromCanon inverts it.
func TestBlockAtMatchesPattern(t *testing.T) {
	const n = 6
	all := make([]perm.Code, 0, 720)
	for r := 0; r < perm.Factorial(n); r++ {
		all = append(all, perm.UnrankCode(n, r))
	}
	pats := orderFourPatterns(t)
	if len(pats) != 300 {
		t.Fatalf("%d order-4 patterns of S_6, want 300", len(pats))
	}
	for _, pat := range pats {
		ref, err := NewBlock(pat)
		if err != nil {
			t.Fatal(err)
		}
		var free [4]uint8
		for j, pos := range pat.FreePositions(nil) {
			free[j] = uint8(pos)
		}
		members := pat.Vertices(nil)
		for _, v := range members {
			if b := BlockAt(v, free); b != *ref {
				t.Fatalf("%v: BlockAt(%s) = %+v, NewBlock %+v", pat, v.StringN(n), b, *ref)
			}
		}
		for _, v := range all {
			if ref.Contains(v) != pat.Contains(v) {
				t.Fatalf("%v: Contains(%s) = %v, pattern says %v", pat, v.StringN(n), ref.Contains(v), pat.Contains(v))
			}
			if _, ok := ref.ToCanon(v); ok != pat.Contains(v) {
				t.Fatalf("%v: ToCanon(%s) ok = %v, pattern says %v", pat, v.StringN(n), ok, pat.Contains(v))
			}
		}
		var hit uint32
		for _, v := range members {
			idx, ok := ref.ToCanon(v)
			if !ok || idx >= BlockOrder || hit&(1<<idx) != 0 {
				t.Fatalf("%v: ToCanon(%s) = %d, %v: not a bijection onto 0..23", pat, v.StringN(n), idx, ok)
			}
			hit |= 1 << idx
			if ref.FromCanon(idx) != v {
				t.Fatalf("%v: FromCanon(ToCanon(%s)) = %s", pat, v.StringN(n), ref.FromCanon(idx).StringN(n))
			}
		}
		if hit != 1<<BlockOrder-1 {
			t.Fatalf("%v: ToCanon misses indices: %024b", pat, hit)
		}
	}
}

// TestBlockAtAllocs: computing an isomorphism allocates nothing.
func TestBlockAtAllocs(t *testing.T) {
	v := perm.Pack(perm.MustParse("387625149"))
	free := [4]uint8{1, 2, 5, 7}
	var sink Block
	if allocs := testing.AllocsPerRun(100, func() {
		sink = BlockAt(v, free)
		v = sink.FromCanon(uint8(v % BlockOrder))
	}); allocs != 0 {
		t.Errorf("BlockAt allocates %.1f objects, want 0", allocs)
	}
}

// TestBlockIsomorphism: on random blocks of S_5 up to S_16, so that
// the free positions ToCanon reads lie anywhere in the word, ToCanon is
// a bijection onto 0..23 that FromCanon inverts, it preserves
// adjacency both ways, and it rejects a non-member.
func TestBlockIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{5, 6, 7, 9, 12, perm.MaxN} {
		g := star.New(n)
		for trial := 0; trial < 10; trial++ {
			pat := randomBlockPattern(rng, n)
			b, err := NewBlock(pat)
			if err != nil {
				t.Fatal(err)
			}
			verts := pat.Vertices(nil)
			if len(verts) != BlockOrder {
				t.Fatalf("pattern %v has %d vertices", pat, len(verts))
			}
			seen := map[uint8]bool{}
			for _, v := range verts {
				idx, ok := b.ToCanon(v)
				if !ok {
					t.Fatalf("ToCanon rejected member %s", v.StringN(n))
				}
				if seen[idx] {
					t.Fatalf("ToCanon not injective at %d", idx)
				}
				seen[idx] = true
				if b.FromCanon(idx) != v {
					t.Fatalf("FromCanon(ToCanon) != id at %s", v.StringN(n))
				}
			}
			// Adjacency preservation, both directions.
			for _, u := range verts {
				ui, _ := b.ToCanon(u)
				for _, v := range verts {
					vi, _ := b.ToCanon(v)
					ambient := g.Adjacent(u, v)
					canon := Canon.Adjacency(ui)&(1<<uint(vi)) != 0
					if ambient != canon {
						t.Fatalf("adjacency not preserved: %s-%s ambient=%v canon=%v",
							u.StringN(n), v.StringN(n), ambient, canon)
					}
				}
			}
			// Non-members rejected.
			if _, ok := b.ToCanon(perm.IdentityCode(n)); ok && !pat.Contains(perm.IdentityCode(n)) {
				t.Fatal("ToCanon accepted a non-member")
			}
		}
	}
}

func TestBlockPathAmbient(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 6
	g := star.New(n)
	pat := randomBlockPattern(rng, n)
	b, err := NewBlock(pat)
	if err != nil {
		t.Fatal(err)
	}
	verts := pat.Vertices(nil)
	fault := verts[5]
	// Any opposite-parity healthy pair admits a 22-path (strengthened
	// Lemma 4, mapped through the isomorphism).
	var from, to perm.Code
	for _, v := range verts {
		if v == fault {
			continue
		}
		if from == 0 {
			from = v
			continue
		}
		if v.Parity(n) != from.Parity(n) {
			to = v
			break
		}
	}
	path, ok := b.Path(PathSpec{From: from, To: to, AvoidV: []perm.Code{fault}, Target: 22})
	if !ok {
		t.Fatal("no 22-path in ambient block")
	}
	if len(path) != 22 || path[0] != from || path[21] != to {
		t.Fatal("bad endpoints or length")
	}
	seen := map[perm.Code]bool{}
	for i, v := range path {
		if v == fault || seen[v] || !pat.Contains(v) {
			t.Fatalf("bad vertex at %d", i)
		}
		seen[v] = true
		if i > 0 && !g.Adjacent(path[i-1], v) {
			t.Fatalf("hop %d not an edge", i)
		}
	}
	// MaxPath, which searches where Path read the detour table, finds
	// the same 22 vertices: no longer path avoids the fault.
	if long, ok := b.MaxPath(PathSpec{From: from, To: to, AvoidV: []perm.Code{fault}}); !ok || !slices.Equal(long, path) {
		t.Fatalf("MaxPath = %v, %v; want Path's %v", long, ok, path)
	}
}

func TestBlockCanonEdge(t *testing.T) {
	b, _ := NewBlock(substar.Whole(4))
	u := perm.IdentityCode(4)
	v := u.SwapFirst(2)
	e, ok := b.CanonEdge(u, v)
	if !ok {
		t.Fatal("edge rejected")
	}
	if e.A > e.B {
		t.Fatal("edge not normalized")
	}
	if _, ok := b.CanonEdge(u, u.SwapFirst(2).SwapFirst(3)); ok {
		t.Fatal("non-edge accepted")
	}
}

// TestLemma5 reproduces Lemma 5: with U and V adjacent 3-vertices, U's
// six vertices form a 6-cycle, and exactly two of them have cross edges
// to V — and those two are antipodal on the cycle (c_j and c_{j+3}).
func TestLemma5(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		g := star.New(n)
		// Build adjacent 3-vertex pairs by partitioning an order-4
		// pattern at its last free position.
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 5; trial++ {
			parent := randomBlockPattern(rng, n)
			free := parent.FreePositions(nil)
			pos := free[len(free)-1]
			kids := parent.Partition(pos)
			for i := range kids {
				for j := range kids {
					if i == j {
						continue
					}
					u, v := kids[i], kids[j]
					checkLemma5(t, g, u, v)
				}
			}
		}
	}
}

func checkLemma5(t *testing.T, g star.Graph, u, v substar.Pattern) {
	t.Helper()
	verts := u.Vertices(nil)
	if len(verts) != 6 {
		t.Fatalf("3-vertex with %d vertices", len(verts))
	}
	// Walk the 6-cycle.
	adj := g.InducedSubgraph(verts)
	cycle := []perm.Code{verts[0]}
	prev := perm.Code(0)
	for len(cycle) < 6 {
		cur := cycle[len(cycle)-1]
		ns := adj[cur]
		if len(ns) != 2 {
			t.Fatalf("induced degree %d inside a 3-vertex", len(ns))
		}
		next := ns[0]
		if next == prev {
			next = ns[1]
		}
		prev = cur
		cycle = append(cycle, next)
	}
	// Find the vertices with cross edges to v.
	var ports []int
	for i, c := range cycle {
		has := false
		g.VisitNeighbors(c, func(w perm.Code, _ int) bool {
			if v.Contains(w) {
				has = true
				return false
			}
			return true
		})
		if has {
			ports = append(ports, i)
		}
	}
	if len(ports) != 2 {
		t.Fatalf("3-vertex has %d ports to its neighbor, want 2", len(ports))
	}
	if d := ports[1] - ports[0]; d != 3 {
		t.Fatalf("ports at cycle distance %d, want 3 (antipodal)", d)
	}
}

// TestLemma6 reproduces Lemma 6: V a 3-vertex adjacent to U and W with
// u_dif(U,V) != w_dif(V,W); then V's two ports toward U are disjoint
// from its two ports toward W.
func TestLemma6(t *testing.T) {
	n := 5
	g := star.New(n)
	whole := substar.Whole(n)
	// All order-3 patterns arise from fixing two positions; enumerate a
	// family with adjacent triples: partition at position 4 then 5.
	for _, mid := range whole.PartitionSeq([]int{4, 5}) {
		// Find neighbors U, W of V=mid among patterns differing at one
		// fixed position.
		var neighbors []substar.Pattern
		for _, other := range whole.PartitionSeq([]int{4, 5}) {
			if mid.Adjacent(other) {
				neighbors = append(neighbors, other)
			}
		}
		for _, u := range neighbors {
			for _, w := range neighbors {
				if u == w {
					continue
				}
				p := u.Dif(mid)
				q := mid.Dif(w)
				if u.SymbolAt(p) == w.SymbolAt(q) {
					continue // Lemma 6's hypothesis fails
				}
				portsU := ports(g, mid, u)
				portsW := ports(g, mid, w)
				for _, a := range portsU {
					for _, b := range portsW {
						if a == b {
							t.Fatalf("ports not disjoint for %v between %v and %v", mid, u, w)
						}
					}
				}
			}
		}
	}
}

// ports lists the vertices of pattern p that have a neighbor inside q.
func ports(g star.Graph, p, q substar.Pattern) []perm.Code {
	var out []perm.Code
	for _, c := range p.Vertices(nil) {
		g.VisitNeighbors(c, func(w perm.Code, _ int) bool {
			if q.Contains(w) {
				out = append(out, c)
				return false
			}
			return true
		})
	}
	return out
}
