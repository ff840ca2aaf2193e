package core

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// TestSmokeEmbed drives the full pipeline across small dimensions and
// fault counts; the detailed suites live alongside each package.
func TestSmokeEmbed(t *testing.T) {
	for n := 3; n <= 7; n++ {
		for k := 0; k <= faults.MaxTolerated(n); k++ {
			rng := rand.New(rand.NewSource(int64(100*n + k)))
			fs := faults.RandomVertices(n, k, rng)
			plan, err := Embed(n, fs, Config{})
			if err != nil {
				t.Fatalf("Embed(n=%d, |Fv|=%d): %v", n, k, err)
			}
			res := plan.Result()
			if res.Len() < res.Guarantee {
				t.Fatalf("Embed(n=%d, |Fv|=%d): length %d < guarantee %d", n, k, res.Len(), res.Guarantee)
			}
			t.Logf("n=%d |Fv|=%d: ring %d (guarantee %d, upper %d, blocks %d)",
				n, k, res.Len(), res.Guarantee, res.UpperBound, res.Blocks)
		}
	}
}
