// Fault-tolerance drill: processors of a star-graph multiprocessor fail
// one by one, and after every failure the ring interconnect is
// re-embedded around the survivors. The drill shows the paper's
// guarantee tracking reality — each failure costs exactly two ring
// slots — until the fault budget n-3 is exhausted, after which the
// library degrades to best-effort embeddings.
//
// This is the scenario the paper's introduction motivates: a
// ring-structured computation (pipelines, token protocols, systolic
// loops) that must keep running as processors die.
package main

import (
	"fmt"
	"log"
	"math/rand"

	repro "repro"
)

func main() {
	const n = 7
	rng := rand.New(rand.NewSource(42))
	g := repro.NewGraph(n)
	fmt.Printf("multiprocessor: S_%d, %d processors, fault budget %d\n\n",
		n, g.Order(), repro.MaxFaults(n))

	fs := repro.NewFaultSet(n)
	fmt.Printf("%-7s %-10s %-10s %-11s %-9s\n", "faults", "ring", "guarantee", "ceiling", "mode")

	embedOnce := func(label string) {
		opts := repro.Options{}
		mode := "strict"
		if fs.NumVertices() > repro.MaxFaults(n) {
			opts.BestEffort = true
			mode = "best-effort"
		}
		plan, err := repro.EmbedRing(n, fs, opts)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		res := plan.Result()
		guar := "-"
		if res.Guaranteed {
			guar = fmt.Sprint(res.Guarantee)
		}
		fmt.Printf("%-7d %-10d %-10s %-11d %-9s\n",
			fs.NumVertices(), res.Len(), guar, res.UpperBound, mode)
	}

	embedOnce("initial")
	// Fail processors one at a time, two beyond the formal budget.
	for i := 0; i < repro.MaxFaults(n)+2; i++ {
		for {
			v, err := repro.ParseVertex(randomVertexString(n, rng))
			if err != nil {
				log.Fatal(err)
			}
			if !fs.HasVertex(v) {
				fs.AddVertex(v)
				break
			}
		}
		embedOnce(fmt.Sprintf("failure %d", i+1))
	}

	fmt.Println("\nEach failure within budget shrinks the ring by exactly 2 —")
	fmt.Println("the optimal loss, since the star graph is bipartite with equal sides.")
}

// randomVertexString draws a uniform permutation of 1..n in the paper's
// string notation.
func randomVertexString(n int, rng *rand.Rand) string {
	digits := []byte("123456789abcdefg")[:n]
	rng.Shuffle(n, func(i, j int) { digits[i], digits[j] = digits[j], digits[i] })
	return string(digits)
}
