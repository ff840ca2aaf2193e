package check

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// hexagon returns the 6-cycle that is S_3.
func hexagon() []perm.Code {
	v := perm.IdentityCode(3)
	out := make([]perm.Code, 0, 6)
	dim := 2
	for i := 0; i < 6; i++ {
		out = append(out, v)
		v = v.SwapFirst(dim)
		dim = 5 - dim
	}
	return out
}

func TestRingAcceptsValidCycle(t *testing.T) {
	g := star.New(3)
	if err := Ring(g, hexagon(), nil, 6); err != nil {
		t.Fatalf("valid hexagon rejected: %v", err)
	}
}

func TestRingRejections(t *testing.T) {
	g := star.New(3)
	hex := hexagon()

	cases := []struct {
		name  string
		cycle []perm.Code
		fs    func() *faults.Set
		min   int
	}{
		{"too short vs bound", hex, nil, 7},
		{"under three vertices", hex[:2], nil, 0},
		{"duplicate vertex", append(append([]perm.Code{}, hex...), hex[0]), nil, 0},
		{"non-adjacent hop", []perm.Code{hex[0], hex[2], hex[4]}, nil, 0},
		{"faulty vertex", hex, func() *faults.Set {
			fs := faults.NewSet(3)
			fs.AddVertex(hex[2])
			return fs
		}, 0},
		{"faulty edge", hex, func() *faults.Set {
			fs := faults.NewSet(3)
			fs.AddEdge(hex[1], hex[2])
			return fs
		}, 0},
		{"faulty closing edge", hex, func() *faults.Set {
			fs := faults.NewSet(3)
			fs.AddEdge(hex[5], hex[0])
			return fs
		}, 0},
	}
	for _, c := range cases {
		var fs *faults.Set
		if c.fs != nil {
			fs = c.fs()
		}
		err := Ring(g, c.cycle, fs, c.min)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !errors.Is(err, ErrInvalidRing) {
			t.Errorf("%s: wrong error type: %v", c.name, err)
		}
	}
}

func TestRingRejectsForeignVertex(t *testing.T) {
	g := star.New(3)
	bad := append([]perm.Code{}, hexagon()...)
	bad[3] = perm.None
	if err := Ring(g, bad, nil, 0); err == nil {
		t.Fatal("foreign vertex accepted")
	}
}

func TestPath(t *testing.T) {
	g := star.New(3)
	hex := hexagon()
	if err := Path(g, hex[:4], nil, hex[0], hex[3], 4); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	if err := Path(g, nil, nil, hex[0], hex[3], 0); err == nil {
		t.Fatal("empty path accepted")
	}
	// A path need not close: the wraparound pair may be non-adjacent.
	if err := Path(g, []perm.Code{hex[0], hex[1], hex[2]}, nil, hex[0], hex[2], 0); err != nil {
		t.Fatalf("open path rejected: %v", err)
	}
	if err := Path(g, []perm.Code{hex[0], hex[2]}, nil, hex[0], hex[2], 0); err == nil {
		t.Fatal("disconnected pair accepted")
	}
	fs := faults.NewSet(3)
	fs.AddVertex(hex[1])
	if err := Path(g, hex[:3], fs, hex[0], hex[2], 0); err == nil {
		t.Fatal("faulty vertex on path accepted")
	}
}

func TestBipartiteUpperBound(t *testing.T) {
	n := 4
	if got := BipartiteUpperBound(n, nil); got != 24 {
		t.Fatalf("fault-free bound %d", got)
	}
	fs := faults.NewSet(n)
	fs.AddVertexString("1234") // even
	if got := BipartiteUpperBound(n, fs); got != 22 {
		t.Fatalf("one fault: %d", got)
	}
	fs.AddVertexString("1342") // also even (cycle of length 3)
	if got := BipartiteUpperBound(n, fs); got != 20 {
		t.Fatalf("two same-side faults: %d", got)
	}
	fs.AddVertexString("2134") // odd
	if got := BipartiteUpperBound(n, fs); got != 20 {
		t.Fatalf("2+1 faults: %d", got)
	}
}

func TestGuarantees(t *testing.T) {
	if GuaranteeHCH(6, 3) != 714 {
		t.Error("GuaranteeHCH")
	}
	if GuaranteeTseng(6, 3) != 708 {
		t.Error("GuaranteeTseng")
	}
	if GuaranteeLatifi(6, 3) != 714 {
		t.Error("GuaranteeLatifi")
	}
}
