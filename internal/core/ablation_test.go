package core

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/substar"
)

// Ablation: Lemma 2's greedy separating positions vs naive fixed
// positions (2, 3, ..., n-3). With clustered faults the naive choice
// leaves one block holding every fault, breaking (P1): the router must
// fall back to degraded multi-fault block paths whose existence is no
// longer covered by Lemma 4, so the n!-2|Fv| GUARANTEE is lost even
// when the measured length happens to survive. The benchmarks report
// both the achieved length and the number of (P1) violations (faulty
// blocks holding >= 2 faults) under each policy.

// clusteredSet builds a fault set that the naive positions (2..n-3)
// cannot separate: every fault holds the identity symbols at those
// positions and the faults differ only among the remaining positions,
// so all of them land in a single naive block. The greedy of Lemma 2
// separates them by choosing positions where they differ.
func clusteredSet(b testing.TB, n int) *faults.Set {
	fs := faults.NewSet(n)
	k := faults.MaxTolerated(n)
	// Free positions under the naive split: 1 and n-3+1 .. n. Rotate the
	// symbols {1, n-2, n-1, n} through position 1.
	base := make([]uint8, n)
	for i := range base {
		base[i] = uint8(i + 1)
	}
	swapWith := []int{0, n - 3, n - 2, n - 1} // 0-based positions outside 2..n-3
	for j := 0; j < k && j < len(swapWith); j++ {
		v := append([]uint8{}, base...)
		p := swapWith[j]
		v[0], v[p] = v[p], v[0]
		pp, err := perm.New(v)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.AddVertex(perm.Pack(pp)); err != nil {
			b.Fatal(err)
		}
	}
	return fs
}

func naivePositions(n int) []int {
	ps := make([]int, 0, n-4)
	for i := 2; len(ps) < n-4; i++ {
		ps = append(ps, i)
	}
	return ps
}

func embedWithPositions(b testing.TB, n int, fs *faults.Set, positions []int) int {
	spec := BuildSpec{Positions: positions}
	r4, err := BuildR4(n, fs, spec)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := newSkeleton(r4, fs)
	if err != nil {
		b.Fatal(err)
	}
	if sk.routeRing(r4, fs, func(_, vf int) []int { return blockTargets(vf, false, true) }, nil, nil) != nil {
		return 0 // routing can fail outright without (P1)
	}
	return sk.ringLen()
}

func p1Violations(n int, fs *faults.Set, positions []int) int {
	v := 0
	for _, blk := range substar.Whole(n).PartitionSeq(positions) {
		if fs.CountIn(blk) > 1 {
			v++
		}
	}
	return v
}

func BenchmarkAblationSeparationGreedy(b *testing.B) {
	n := 7
	fs := clusteredSet(b, n)
	positions, _ := fs.SeparatingPositions()
	var l int
	for i := 0; i < b.N; i++ {
		l = embedWithPositions(b, n, fs, positions)
	}
	b.ReportMetric(float64(l), "ringlen")
	b.ReportMetric(float64(p1Violations(n, fs, positions)), "p1viol")
}

func BenchmarkAblationSeparationNaive(b *testing.B) {
	n := 7
	fs := clusteredSet(b, n)
	positions := naivePositions(n)
	var l int
	for i := 0; i < b.N; i++ {
		l = embedWithPositions(b, n, fs, positions)
	}
	b.ReportMetric(float64(l), "ringlen")
	b.ReportMetric(float64(p1Violations(n, fs, positions)), "p1viol")
}

// TestAblationGreedyNeverWorse pins the ablation's direction across
// seeds: greedy separation yields rings at least as long as the naive
// positions on clustered fault sets, and always meets the paper bound.
func TestAblationGreedyNeverWorse(t *testing.T) {
	n := 7
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs, _, err := faults.ClusteredVertices(n, 4, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		positions, separated := fs.SeparatingPositions()
		if !separated {
			t.Fatal("greedy failed to separate")
		}
		greedy := embedWithPositions(t, n, fs, positions)
		naive := embedWithPositions(t, n, fs, naivePositions(n))
		if greedy < 5040-2*4 {
			t.Fatalf("greedy ring %d under the bound", greedy)
		}
		if naive > greedy {
			t.Fatalf("naive positions beat greedy: %d > %d", naive, greedy)
		}
		// Sanity: the naive split really does violate (P1) here — if it
		// doesn't for this seed, the comparison is vacuous but harmless.
		violations := 0
		for _, blk := range substar.Whole(n).PartitionSeq(naivePositions(n)) {
			if fs.CountIn(blk) > 1 {
				violations++
			}
		}
		if violations == 0 && naive != greedy {
			t.Logf("seed %d: naive happened to separate; lengths %d vs %d", seed, naive, greedy)
		}
	}
}
