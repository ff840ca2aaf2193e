package repro_test

import (
	"testing"

	repro "repro"
)

// TestPublicAPIQuickstart mirrors the doc-comment quick start.
func TestPublicAPIQuickstart(t *testing.T) {
	fs := repro.NewFaultSet(7)
	if err := fs.AddVertexString("2134567"); err != nil {
		t.Fatal(err)
	}
	plan, err := repro.EmbedRing(7, fs, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Result()
	if res.Len() != repro.Factorial(7)-2 {
		t.Fatalf("ring length %d", res.Len())
	}
	if err := repro.VerifyRing(repro.NewGraph(7), plan.Ring(), fs, res.Len()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIVertexHelpers(t *testing.T) {
	v, err := repro.ParseVertex("321")
	if err != nil {
		t.Fatal(err)
	}
	if got := repro.FormatVertex(v, 3); got != "321" {
		t.Fatalf("roundtrip %q", got)
	}
	if _, err := repro.ParseVertex("3x1"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	fs := repro.NewFaultSet(6)
	fs.AddVertexString("214356")
	fs.AddVertexString("215346")

	pPlan, err := repro.EmbedRing(6, fs, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := pPlan.Result()
	q, err := repro.EmbedRingTseng(6, fs, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() <= len(q.Ring)-1 && p.Len() < p.Guarantee {
		t.Fatal("paper result under guarantee")
	}
	l, err := repro.EmbedRingClustered(6, fs, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Ring) < l.Guarantee {
		t.Fatal("clustered result under guarantee")
	}
}

func TestPublicAPIBounds(t *testing.T) {
	fs := repro.NewFaultSet(5)
	fs.AddVertexString("12345")
	fs.AddVertexString("12453")
	if got := repro.RingUpperBound(5, fs); got != 116 {
		t.Fatalf("upper bound %d", got)
	}
	if repro.MaxFaults(5) != 2 || repro.Factorial(5) != 120 {
		t.Fatal("constants wrong")
	}
}

func TestPublicAPIBudgetError(t *testing.T) {
	fs := repro.NewFaultSet(5)
	for _, s := range []string{"21345", "31245", "41325"} {
		fs.AddVertexString(s)
	}
	_, err := repro.EmbedRing(5, fs, repro.Options{})
	if err == nil {
		t.Fatal("over-budget embedding accepted")
	}
	plan, err := repro.EmbedRing(5, fs, repro.Options{BestEffort: true})
	if err != nil {
		t.Fatalf("best effort failed: %v", err)
	}
	res := plan.Result()
	if res.Guaranteed {
		t.Fatal("best-effort result claims guarantee")
	}
}
