package superring

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/substar"
)

// BenchmarkRefineRing refines fault-free rings of S_n from the
// 2-partition down to order 4: closed rings, and open rings anchored at
// the identity and its neighbor across dimension 2.
func BenchmarkRefineRing(b *testing.B) {
	for _, shape := range []string{"closed", "open"} {
		for n := 8; n <= 10; n++ {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				s := perm.IdentityCode(n)
				for i := 0; i < b.N; i++ {
					var r *Ring
					var err error
					if shape == "open" {
						r, err = InitialChain(n, 2, s, s.SwapFirst(2), Options{})
					} else {
						r, err = Initial(n, 2, Options{})
					}
					if err != nil {
						b.Fatal(err)
					}
					for pos := 3; r.Order() > 4; pos++ {
						r, err = r.Refine(pos, Options{})
						if err != nil {
							b.Fatal(err)
						}
					}
					if r.Len() != factorialOver24(n) {
						b.Fatalf("R4 length %d", r.Len())
					}
				}
			})
		}
	}
}

func factorialOver24(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f / 24
}

func BenchmarkRefineWithFaultDiscipline(b *testing.B) {
	n := 7
	fs := faults.NewSet(n)
	for _, s := range []string{"2134567", "3124567", "4123567", "5123467"} {
		if err := fs.AddVertexString(s); err != nil {
			b.Fatal(err)
		}
	}
	w := func(p substar.Pattern) int { return fs.CountIn(p) }
	positions, _ := fs.SeparatingPositions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Initial(n, positions[0], Options{FaultCount: w})
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j < len(positions); j++ {
			opts := Options{FaultCount: w}
			if j == len(positions)-1 {
				opts.SpreadFaults = true
				opts.HealthyJunctions = true
			}
			r, err = r.Refine(positions[j], opts)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
