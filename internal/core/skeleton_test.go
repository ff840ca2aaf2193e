package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/superring"
)

// TestSkeletonBytesPerBlock holds a plan's retained skeleton to 18
// bytes per block through the core.skeleton.bytes_per_block gauge:
// fault-free and at the n-3 budget for n = 6..9, and after a splice
// adds a side-table entry. Entry and step word are 16 bytes; the offset
// checkpoints (an eighth of a byte), the refinement record (0.6–0.9
// bytes at n = 7..9) and the side table round up. At n = 6 the ring
// has 30 blocks, and a plan holding a fault is held to 20: its side
// table alone costs 0.5–1.6 bytes per block there.
func TestSkeletonBytesPerBlock(t *testing.T) {
	ns := []int{6, 7, 8, 9}
	if testing.Short() {
		ns = ns[:2]
	}
	limit := func(n int, faulty bool) int64 {
		if n == 6 && faulty {
			return 20
		}
		return 18
	}
	for _, n := range ns {
		for _, k := range []int{0, faults.MaxTolerated(n)} {
			reg := obs.NewRegistry()
			e, err := NewEmbedder(n, Config{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.Embed(faults.RandomVertices(n, k, rand.New(rand.NewSource(int64(n)))))
			if err != nil {
				t.Fatal(err)
			}
			gauge := reg.Gauge("core.skeleton.bytes_per_block")
			t.Logf("n=%d |Fv|=%d: %d bytes per block", n, k, gauge.Value())
			if got, bound := gauge.Value(), limit(n, k > 0); got <= 0 || got > bound {
				t.Errorf("n=%d |Fv|=%d: %d skeleton bytes per block, want (0, %d]", n, k, got, bound)
			}
			if got, want := gauge.Value(), p.sk.bytesPerBlock(); got != want {
				t.Errorf("n=%d |Fv|=%d: gauge %d, skeleton %d", n, k, got, want)
			}
			if k == 0 {
				rep, err := p.Repair(interiorOf(t, p, 1))
				if err != nil || rep.Outcome != RepairSplice {
					t.Fatalf("n=%d: splice: %v %v", n, rep.Outcome, err)
				}
				t.Logf("n=%d after a splice: %d bytes per block", n, gauge.Value())
				if got, bound := gauge.Value(), limit(n, true); got <= 0 || got > bound {
					t.Errorf("n=%d after a splice: %d skeleton bytes per block, want (0, %d]", n, got, bound)
				}
			}
		}
	}
}

// nonVertices lists codes that are not vertices of S_n: the None
// sentinel, the identity with a nonzero nibble above position n, with
// a symbol beyond n (n+1, and the largest a nibble holds), and with a
// repeated symbol.
func nonVertices(n int) map[string]perm.Code {
	id := perm.IdentityCode(n)
	return map[string]perm.Code{
		"None":            perm.None,
		"nibble above n":  id | perm.Code(1)<<(4*uint(n)),
		"symbol n+1":      id.WithSymbol(2, uint8(n+1)),
		"symbol 16":       id.WithSymbol(1, perm.MaxN),
		"repeated symbol": id.WithSymbol(2, 1),
	}
}

// TestOnRingRejectsNonVertices: OnRing and CanSplice answer false for a
// code that is not a vertex of S_n — they used to panic in the block
// lookup — before and after a splice.
func TestOnRingRejectsNonVertices(t *testing.T) {
	n := 7
	p := planOn(t, n, Config{})
	probe := func(when string) {
		t.Helper()
		for name, v := range nonVertices(n) {
			if p.OnRing(v) {
				t.Errorf("%s: OnRing(%s) = true", when, name)
			}
			if p.CanSplice(v) {
				t.Errorf("%s: CanSplice(%s) = true", when, name)
			}
		}
	}
	probe("embed")
	if rep, err := p.Repair(interiorOf(t, p, 3)); err != nil || rep.Outcome != RepairSplice {
		t.Fatalf("splice: %v %v", rep.Outcome, err)
	}
	probe("after a splice")
}

// TestOnRingAllocs: on a warm plan, a block lookup plus a segment replay
// through the stack isomorphism allocates nothing.
func TestOnRingAllocs(t *testing.T) {
	p := planOn(t, 8, Config{})
	rng := rand.New(rand.NewSource(3))
	vs := make([]perm.Code, 64)
	for i := range vs {
		vs[i] = perm.UnrankCode(8, rng.Intn(perm.Factorial(8)))
	}
	for _, v := range vs {
		p.OnRing(v) // touch every probed block once before counting
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		p.OnRing(vs[i%len(vs)])
		i++
	}); allocs != 0 {
		t.Errorf("OnRing allocates %.1f objects per call, want 0", allocs)
	}
}

// TestBlockOfAgreesWithBlocks: the walk of the refinement record sends
// every vertex of S_6 to the ring position of the block whose replayed
// segment or spare set holds it: each vertex lies in exactly one block,
// and a block's isomorphism, computed from its entry, contains exactly
// the vertices the walk assigns it.
func TestBlockOfAgreesWithBlocks(t *testing.T) {
	n := 6
	p := planOn(t, n, Config{})
	sk := p.sk
	count := make([]int, sk.blocks())
	for r := 0; r < perm.Factorial(n); r++ {
		v := perm.UnrankCode(n, r)
		k := sk.blockOf(v)
		if k < 0 || k >= sk.blocks() {
			t.Fatalf("blockOf(%s) = %d", v.StringN(n), k)
		}
		count[k]++
		if b := pathsearch.BlockAt(sk.entry[k], sk.free); !b.Contains(v) {
			t.Fatalf("block %d's isomorphism rejects %s, which the walk assigns it", k, v.StringN(n))
		}
	}
	for k, c := range count {
		if c != blockOrder {
			t.Fatalf("the walk assigns block %d %d vertices, want %d", k, c, blockOrder)
		}
	}
}

// TestOffsetsMatchPrefixSums holds the offset checkpoints to a
// prefix-sum oracle: for block counts below, at and around a multiple
// of the 64-block chunk and not a multiple of it, with random block
// lengths, offset(k) is the sum of the lengths before k for every k,
// and find(i) returns the block holding i and its first position for
// every ring position i — after layout and after each of a run of
// random resizes, among them ones in the first and the last chunk.
func TestOffsetsMatchPrefixSums(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{1, 30, 63, 64, 65, 210, 1000} {
		sk := &skeleton{steps: make([]pathsearch.Steps, m)}
		for k := range sk.steps {
			sk.steps[k] = pathsearch.Steps(1 + rng.Intn(blockOrder))
		}
		sk.layout()
		check := func(stage string) {
			t.Helper()
			off := 0
			for k, s := range sk.steps {
				if got := sk.offset(k); got != off {
					t.Fatalf("m=%d %s: offset(%d) = %d, prefix sum %d", m, stage, k, got, off)
				}
				for i := off; i < off+s.Len(); i++ {
					if gk, gs := sk.find(i); gk != k || gs != off {
						t.Fatalf("m=%d %s: find(%d) = (%d, %d), want (%d, %d)", m, stage, i, gk, gs, k, off)
					}
				}
				off += s.Len()
			}
			if sk.ringLen() != off {
				t.Fatalf("m=%d %s: ring length %d, prefix sum %d", m, stage, sk.ringLen(), off)
			}
		}
		check("layout")
		for r := 0; r < 12; r++ {
			k := rng.Intn(m)
			switch r {
			case 0:
				k = rng.Intn(min(m, 1<<chunkBits))
			case 1:
				k = m - 1 - rng.Intn(min(m, 1<<chunkBits))
			}
			old := sk.steps[k].Len()
			sk.steps[k] = pathsearch.Steps(1 + rng.Intn(blockOrder))
			sk.resize(k, old-sk.steps[k].Len())
			check(fmt.Sprintf("resize %d of block %d", r, k))
		}
	}
}

// TestNewSkeletonRefusesUnrecordedRing: a ring from superring.New
// carries no refinement record to locate its blocks, so newSkeleton
// refuses it; the same blocks from BuildR4 are accepted.
func TestNewSkeletonRefusesUnrecordedRing(t *testing.T) {
	fs := faults.NewSet(6)
	r4, err := BuildR4(6, fs, BuildSpec{Positions: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSkeleton(r4, fs); err != nil {
		t.Fatalf("BuildR4's ring refused: %v", err)
	}
	bare, err := superring.New(6, r4.Vertices())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSkeleton(bare, fs); err == nil {
		t.Fatal("newSkeleton accepted a ring with no refinement record")
	}
}

// TestHoldsFaultMatchesSideTable: the faultMask filter never hides a
// faulty block and never makes a fault-free one faulty. On an S_7
// skeleton (210 blocks, so blocks 64 apart share a filter bit) with
// vertex faults added as a splice adds them and an interior edge fault
// mapped as an embed maps it, holdsFault(k) is true exactly for the
// blocks whose avoid lists are nonempty.
func TestHoldsFaultMatchesSideTable(t *testing.T) {
	p := planOn(t, 7, Config{})
	sk := p.sk
	check := func(stage string) {
		t.Helper()
		for k := 0; k < sk.blocks(); k++ {
			avoidV, avoidE := sk.faults(k)
			if got, want := sk.holdsFault(k), len(avoidV)+len(avoidE) > 0; got != want {
				t.Fatalf("%s: holdsFault(%d) = %v, side table says %v", stage, k, got, want)
			}
		}
	}
	check("fault-free")
	for _, k := range []int{3, 67, 131, 200} {
		sk.addVertexFault(k, interiorOf(t, p, k))
		check(fmt.Sprintf("vertex fault in block %d", k))
	}
	fs := faults.NewSet(7)
	u := sk.entry[70]
	if err := fs.AddEdge(u, u.SwapFirst(int(sk.free[1]))); err != nil {
		t.Fatal(err)
	}
	sk.mapFaults(fs)
	check("edge fault in block 70")
}

// TestCrossingMatchesCrossEdges: the junction search recomputes a
// candidate from the two block patterns; it must enumerate exactly
// Pattern.CrossEdges, in the same order, or rings would change.
func TestCrossingMatchesCrossEdges(t *testing.T) {
	for _, n := range []int{5, 6, 7} {
		fs := faults.NewSet(n)
		positions, _ := fs.SeparatingPositions()
		r4, err := BuildR4(n, fs, BuildSpec{Positions: positions})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := newSkeleton(r4, fs)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < r4.Len(); k++ {
			p, q := r4.At(k), r4.At(k+1)
			us, ws := p.CrossEdges(q, nil, nil)
			c, ok := crossingOf(p, q)
			if !ok || len(us) != crossEdges {
				t.Fatalf("n=%d superedge %d: crossing ok=%v, %d cross edges", n, k, ok, len(us))
			}
			for i := range us {
				if u, w := c.edge(sk.free, i); u != us[i] || w != ws[i] {
					t.Fatalf("n=%d superedge %d edge %d: (%s, %s), CrossEdges (%s, %s)",
						n, k, i, u.StringN(n), w.StringN(n), us[i].StringN(n), ws[i].StringN(n))
				}
			}
		}
		if _, ok := crossingOf(r4.At(0), r4.At(2)); ok && r4.At(0).Dif(r4.At(2)) == 0 {
			t.Fatalf("n=%d: crossing accepted non-adjacent blocks", n)
		}
	}
}
