package pathsearch

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs/prof"
)

// labelSink keeps TestSearchKeepsCallerPhase's busy loop from being
// optimized away.
var labelSink uint64

// TestSearchKeepsCallerPhase profiles a phase=embed extent that runs
// one search no table answers — a 23-vertex path around one faulty
// vertex — and then works for 600 ms: the work after the search must
// still carry phase=embed. A search that set a label of its own would
// leave the goroutine unlabeled for the rest of the embed, its
// self-verification included.
func TestSearchKeepsCallerPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for ~0.6s")
	}
	q := Query{Target: BlockOrder - 1}
	q.From = 0
	for i := uint8(1); i < BlockOrder; i++ {
		switch {
		case Canon.Parity(i) == Canon.Parity(q.From) && q.To == 0:
			q.To = i
		case Canon.Parity(i) != Canon.Parity(q.From) && q.ForbidV == 0:
			q.ForbidV = 1 << i
		}
	}
	if _, ok := tableRoute(q); ok {
		t.Fatal("a table answers the query; it would not search")
	}

	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := prof.StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	x := uint64(88172645463325252)
	prof.Do("embed", func() {
		_, found = Canon.FindPath(q)
		for deadline := time.Now().Add(600 * time.Millisecond); time.Now().Before(deadline); {
			for i := 0; i < 1<<14; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
		}
	})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	labelSink = x
	if !found {
		t.Fatalf("no %d-vertex path from %d to %d around %b", q.Target, q.From, q.To, q.ForbidV)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := prof.CPUProfileHasLabel(data, "phase", "embed")
	if err != nil {
		t.Fatalf("parse profile: %v", err)
	}
	if !ok {
		t.Error("no sample carries phase=embed: the search cleared its caller's label")
	}
}
