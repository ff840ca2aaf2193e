// Quickstart: embed a longest ring into a star graph with vertex
// faults and verify it — the paper's Theorem 1 in ten lines.
package main

import (
	"fmt"
	"log"

	repro "repro"
)

func main() {
	const n = 6 // S_6: 720 processors, each a permutation of 1..6

	// Mark three processors faulty (the budget for S_6 is n-3 = 3).
	fs := repro.NewFaultSet(n)
	for _, v := range []string{"213456", "312456", "456123"} {
		if err := fs.AddVertexString(v); err != nil {
			log.Fatal(err)
		}
	}

	// Embed: the ring is guaranteed to have n! - 2|Fv| = 714 vertices.
	plan, err := repro.EmbedRing(n, fs, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, ring := plan.Result(), plan.Ring()

	fmt.Printf("S_%d with %d faulty vertices\n", n, fs.NumVertices())
	fmt.Printf("ring length: %d (guarantee %d, bipartite ceiling %d)\n",
		res.Len(), res.Guarantee, res.UpperBound)
	fmt.Printf("first five hops: ")
	for i := 0; i < 5; i++ {
		fmt.Printf("%s ", repro.FormatVertex(ring[i], n))
	}
	fmt.Println("...")

	// The result was already verified internally; verify once more by
	// hand to show the checker API.
	if err := repro.VerifyRing(repro.NewGraph(n), ring, fs, res.Guarantee); err != nil {
		log.Fatal(err)
	}
	fmt.Println("independent verification: ok")
}
