package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s.add(time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.01, 1}, {0.5, 50}, {0.75, 75}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("p%g of 1..100 = %d, want %d", c.q*100, got, c.want)
		}
	}
	s.add(1000) // a later add re-sorts
	if got := s.quantile(1); got != 1000 {
		t.Errorf("max after add = %d, want 1000", got)
	}
	if got := s.mean(); got != (5050+1000)/101 {
		t.Errorf("mean = %d", got)
	}
	var empty samples
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestReportableNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{21, 0.5, 10, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{50, 0.75, 12, true},
		{40, 0.75, 10, true},
		{39, 0.75, 9, false},
		{0, 0.5, 0, false},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := reportable(c.n, c.q); got != c.ok {
			t.Errorf("reportable(%d, %g) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := medianFloat(xs); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if xs[0] != 4 {
		t.Error("medianFloat reordered its input")
	}
}
