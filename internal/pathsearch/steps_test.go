package pathsearch

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// checkSteps routes spec on b and holds the answer to the canonical
// search: Route and PathAppend agree on the verdict, and a found word
// holds spec.Target vertices and replays from spec.From to the
// search's canonical path mapped through FromCanon, vertex by vertex,
// as does PathAppend's path.
func checkSteps(t *testing.T, b *Block, spec PathSpec) {
	t.Helper()
	steps, ok := b.Route(spec)
	var buf [BlockOrder]perm.Code
	path, pathOK := b.PathAppend(buf[:0], spec)
	if ok != pathOK {
		t.Fatalf("%+v: Route ok = %v, PathAppend ok = %v", spec, ok, pathOK)
	}
	if !ok {
		return
	}
	if steps.Len() != spec.Target {
		t.Fatalf("%+v: word holds %d vertices, want %d", spec, steps.Len(), spec.Target)
	}
	var seg [BlockOrder]perm.Code
	if got := steps.Replay(spec.From, b.freePos, &seg); got != spec.Target {
		t.Fatalf("%+v: replay wrote %d vertices, want %d", spec, got, spec.Target)
	}
	q, _ := b.query(spec, nil)
	canon, found := Canon.FindPath(q)
	if !found || len(canon) != spec.Target || len(path) != spec.Target {
		t.Fatalf("%+v: canonical search found %v (%d vertices), PathAppend %d", spec, found, len(canon), len(path))
	}
	for i, idx := range canon {
		want := b.FromCanon(idx)
		if seg[i] != want || path[i] != want {
			t.Fatalf("%+v: vertex %d replays to %#x, PathAppend %#x, FromCanon gives %#x",
				spec, i, uint64(seg[i]), uint64(path[i]), uint64(want))
		}
	}
}

// randomEdges returns k random edges of block b, each from one of its
// vertices along one of its free positions, repeats allowed.
func randomEdges(rng *rand.Rand, b *Block, verts []perm.Code, k int) [][2]perm.Code {
	var out [][2]perm.Code
	for i := 0; i < k; i++ {
		u := verts[rng.Intn(len(verts))]
		out = append(out, [2]perm.Code{u, u.SwapFirst(int(b.freePos[1+rng.Intn(3)]))})
	}
	return out
}

// TestBlockStepsExhaustive asks every canonical query with at most one
// forbidden vertex — each (from, to, forbidden vertex or none, target)
// — and, per (from, to), two random sets of one to three forbidden
// edges at every target, of one random block of each of S_5, S_6 and
// S_7, whose free positions are random; checkSteps holds every answer
// to the canonical search. The blocks ask the same canonical queries
// over other free positions. The two queries the step-word tables
// answer — Lemma 4's 22-vertex detour around one faulty vertex and the
// fault-free 24-vertex path — allocate nothing through Route,
// PathAppend and Replay.
func TestBlockStepsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var b *Block
	var verts []perm.Code
	for n := 5; n <= 7; n++ {
		pat := randomBlockPattern(rng, n)
		var err error
		if b, err = NewBlock(pat); err != nil {
			t.Fatal(err)
		}
		verts = pat.Vertices(nil)
		for _, from := range verts {
			for _, to := range verts {
				for f := -1; f < BlockOrder; f++ {
					spec := PathSpec{From: from, To: to}
					if f >= 0 {
						spec.AvoidV = verts[f : f+1]
					}
					for spec.Target = 1; spec.Target <= BlockOrder; spec.Target++ {
						checkSteps(t, b, spec)
					}
				}
				for set := 0; set < 2; set++ {
					spec := PathSpec{From: from, To: to, AvoidE: randomEdges(rng, b, verts, 1+rng.Intn(3))}
					for spec.Target = 1; spec.Target <= BlockOrder; spec.Target++ {
						checkSteps(t, b, spec)
					}
				}
			}
		}
	}

	var specs []PathSpec
	for _, to := range verts[1:] {
		detour := PathSpec{From: verts[0], To: to, AvoidV: verts[5:6], Target: BlockOrder - 2}
		if _, ok := b.Route(detour); ok {
			specs = []PathSpec{detour, {From: verts[0], To: to, Target: BlockOrder}}
			break
		}
	}
	if specs == nil {
		t.Fatal("no Lemma 4 detour from the block's first vertex")
	}
	buf := make([]perm.Code, 0, BlockOrder)
	var seg [BlockOrder]perm.Code
	for _, spec := range specs {
		if allocs := testing.AllocsPerRun(100, func() {
			steps, ok := b.Route(spec)
			if !ok {
				t.Fatal("table query lost its path")
			}
			steps.Replay(spec.From, b.freePos, &seg)
			if _, ok := b.PathAppend(buf[:0], spec); !ok {
				t.Fatal("table query lost its path")
			}
		}); allocs != 0 {
			t.Errorf("%d-vertex query with %d faulty vertices: Route, Replay and PathAppend allocate %.1f times",
				spec.Target, len(spec.AvoidV), allocs)
		}
	}
}

// TestStepsOf: StepsOf reads a block walk back into the word Replay
// writes, and refuses an empty walk, one longer than a block, a
// repeated vertex and a step along a position that is not free.
func TestStepsOf(t *testing.T) {
	const n = 9
	free := [4]uint8{1, 3, 6, 8}
	rng := rand.New(rand.NewSource(16))
	walk := []perm.Code{perm.UnrankCode(n, 12345)}
	for len(walk) < BlockOrder {
		walk = append(walk, walk[len(walk)-1].SwapFirst(int(free[1+rng.Intn(3)])))
	}
	for l := 1; l <= BlockOrder; l++ {
		steps, ok := StepsOf(walk[:l], free)
		if !ok || steps.Len() != l {
			t.Fatalf("walk of %d: ok %v, Len %d", l, ok, steps.Len())
		}
		var seg [BlockOrder]perm.Code
		steps.Replay(walk[0], free, &seg)
		for i := 0; i < l; i++ {
			if seg[i] != walk[i] {
				t.Fatalf("walk of %d: vertex %d replays to %s, want %s", l, i, seg[i].StringN(n), walk[i].StringN(n))
			}
		}
	}
	v := walk[0]
	for name, bad := range map[string][]perm.Code{
		"empty":           nil,
		"longer":          append(walk[:BlockOrder:BlockOrder], walk[0].SwapFirst(3)),
		"repeated vertex": {v, v},
		"fixed position":  {v, v.SwapFirst(2)},
		"not an edge":     {v, v.SwapFirst(3).SwapFirst(6)},
	} {
		if _, ok := StepsOf(bad, free); ok {
			t.Errorf("%s: StepsOf accepted the walk", name)
		}
	}
}

// FuzzBlockSteps routes a random query on a random block of S_n, n =
// 5..16: endpoints, a mask of forbidden vertices, a target and up to 15
// forbidden intra-block edges; checkSteps holds the answer. The same
// ends are then asked the two queries the step-word tables answer: a
// fault-free, edge-free, 24-vertex query at the block's free-position
// layout (checkHamiltonian), and Lemma 4's 22-vertex query around one
// random faulty vertex of the block (checkDetour).
func FuzzBlockSteps(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0), uint8(5), uint32(0), uint8(23), uint8(0))
	f.Add(uint8(4), int64(2), uint8(3), uint8(20), uint32(1<<7), uint8(21), uint8(2))
	f.Add(uint8(11), int64(3), uint8(1), uint8(2), uint32(0), uint8(22), uint8(10))
	f.Add(uint8(7), int64(30), uint8(9), uint8(14), uint32(0), uint8(23), uint8(0))
	f.Fuzz(func(t *testing.T, nSel uint8, seed int64, from, to uint8, forbV uint32, target, edges uint8) {
		rng := rand.New(rand.NewSource(seed))
		pat := randomBlockPattern(rng, 5+int(nSel)%12)
		b, err := NewBlock(pat)
		if err != nil {
			t.Fatal(err)
		}
		verts := pat.Vertices(nil)
		spec := PathSpec{
			From:   verts[int(from)%BlockOrder],
			To:     verts[int(to)%BlockOrder],
			AvoidE: randomEdges(rng, b, verts, int(edges)%16),
			Target: 1 + int(target)%BlockOrder,
		}
		for i, v := range verts {
			if forbV&(1<<uint(i)) != 0 {
				spec.AvoidV = append(spec.AvoidV, v)
			}
		}
		checkSteps(t, b, spec)
		checkHamiltonian(t, b, spec.From, spec.To)
		checkDetour(t, b, spec.From, spec.To, verts[rng.Intn(BlockOrder)])
	})
}

// checkHamiltonian holds the fault-free 24-vertex route from from to
// to in block b, Hamiltonian's table read, to Block.Route and the
// search (checkTableRead).
func checkHamiltonian(t *testing.T, b *Block, from, to perm.Code) {
	t.Helper()
	checkTableRead(t, b, PathSpec{From: from, To: to, Target: BlockOrder}, Hamiltonian(from, to, b.freePos))
}

// checkDetour holds Lemma 4's 22-vertex route from from to to around
// the faulty vertex fault in block b, the detour table's word for the
// canonical (fault, from, to), to Block.Route and the search
// (checkTableRead).
func checkDetour(t *testing.T, b *Block, from, to, fault perm.Code) {
	t.Helper()
	f, _ := b.ToCanon(fault)
	u, _ := b.ToCanon(from)
	v, _ := b.ToCanon(to)
	spec := PathSpec{From: from, To: to, AvoidV: []perm.Code{fault}, Target: BlockOrder - 2}
	checkTableRead(t, b, spec, detour[f][u][v])
}

// checkTableRead holds w, a table's word for spec on b, to Block.Route,
// which must return the same word, and to the search: w is nonzero
// exactly when the search finds a path, and it replays from spec.From
// to that path mapped through FromCanon.
func checkTableRead(t *testing.T, b *Block, spec PathSpec, w Steps) {
	t.Helper()
	if routed, ok := b.Route(spec); routed != w || ok != (w != 0) {
		t.Fatalf("%+v: table word %#x, Route %#x (ok %v)", spec, uint64(w), uint64(routed), ok)
	}
	q, _ := b.query(spec, nil)
	canon, found := Canon.FindPath(q)
	if found != (w != 0) {
		t.Fatalf("%+v: search found %v, table word %#x", spec, found, uint64(w))
	}
	if !found {
		return
	}
	var seg [BlockOrder]perm.Code
	if got := w.Replay(spec.From, b.freePos, &seg); got != len(canon) {
		t.Fatalf("%+v: word replays %d vertices, search path %d", spec, got, len(canon))
	}
	for i, idx := range canon {
		if want := b.FromCanon(idx); seg[i] != want {
			t.Fatalf("%+v: vertex %d replays to %#x, FromCanon gives %#x", spec, i, uint64(seg[i]), uint64(want))
		}
	}
}
