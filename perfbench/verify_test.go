package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// plan6 embeds S_6 around fs with the materialized engine.
func plan6(t *testing.T, fs *faults.Set) *core.Plan {
	t.Helper()
	e, err := core.NewEmbedder(6, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Embed(fs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCorruptedRingCountsAsFailure(t *testing.T) {
	fs, err := faults.FromStrings(6, "213456", "321456")
	if err != nil {
		t.Fatal(err)
	}
	p := plan6(t, fs)
	g := star.New(6)
	ring := p.Ring()

	var tl tally
	if !tl.note(verifyRing(g, sliceIter(ring), fs, len(ring))) {
		t.Fatalf("healthy ring rejected: %v", tl.errs)
	}

	swapped := append(ring[:0:0], ring...)
	swapped[1], swapped[5] = swapped[5], swapped[1]
	short := ring[:len(ring)-2]
	faulty := append(ring[:0:0], ring...)
	faulty[3] = fs.Vertices()[0]
	for _, c := range []struct {
		name string
		ring []perm.Code
	}{{"swapped", swapped}, {"short", short}, {"faulty", faulty}} {
		if tl.note(verifyRing(g, sliceIter(c.ring), fs, len(ring))) {
			t.Errorf("%s ring accepted", c.name)
		}
	}
	if tl.note(verifyRing(g, sliceIter(ring), fs, len(ring)+2)) {
		t.Error("a ring shorter than the plan's reported length was accepted")
	}
	if tl.attempted != 5 || tl.failed != 4 {
		t.Errorf("tally %d attempted %d failed, want 5 and 4", tl.attempted, tl.failed)
	}
}

func TestCheckRepairAndResult(t *testing.T) {
	fs, err := faults.FromStrings(6, "213456")
	if err != nil {
		t.Fatal(err)
	}
	p := plan6(t, fs)
	if err := checkResult(p.Result(), 6, 1); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	if err := checkResult(p.Result(), 6, 2); err == nil {
		t.Error("result with the wrong fault count accepted")
	}
	res := *p.Result()
	res.Guaranteed = false
	if err := checkResult(&res, 6, 1); err == nil || !strings.Contains(err.Error(), "Guaranteed") {
		t.Errorf("unguaranteed result: %v", err)
	}

	rep := core.RepairReport{Outcome: core.RepairSplice, OldLen: p.RingLen() + 1, NewLen: p.RingLen()}
	if err := checkRepair(rep, nil, p.Result(), 6, 1); err == nil {
		t.Error("splice that shrank the ring by 1 accepted")
	}
	rep.OldLen = p.RingLen() + 2
	if err := checkRepair(rep, nil, p.Result(), 6, 1); err != nil {
		t.Errorf("valid splice rejected: %v", err)
	}
}
