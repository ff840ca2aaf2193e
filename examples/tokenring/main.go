// Token-ring all-reduce on a faulty star graph: the embedded ring is
// used as an actual communication schedule. Every healthy processor
// holds one datum; a token circulates along the embedded ring
// accumulating the global sum, then circulates once more broadcasting
// it. The simulation executes hop by hop over real star-graph edges
// (each hop re-checked against adjacency), demonstrating that the
// embedding is directly usable as a virtual ring interconnect: the
// round-trip takes exactly ring-length hops regardless of which
// processors have failed.
package main

import (
	"fmt"
	"log"
	"math/rand"

	repro "repro"
)

// processor models one node of the machine.
type processor struct {
	datum int
	sum   int // filled by the broadcast pass
}

func main() {
	const n = 6
	g := repro.NewGraph(n)
	rng := rand.New(rand.NewSource(9))

	// Fail three processors.
	fs := repro.NewFaultSet(n)
	for _, v := range []string{"214365", "345126", "654321"} {
		if err := fs.AddVertexString(v); err != nil {
			log.Fatal(err)
		}
	}

	plan, err := repro.EmbedRing(n, fs, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, ring := plan.Result(), plan.Ring()
	fmt.Printf("virtual ring over S_%d: %d of %d processors participate (%d failed)\n",
		n, res.Len(), g.Order(), fs.NumVertices())

	// Give every participating processor a random datum.
	nodes := make(map[repro.Vertex]*processor, res.Len())
	expected := 0
	for _, v := range ring {
		d := rng.Intn(1000)
		nodes[v] = &processor{datum: d}
		expected += d
	}

	// Pass 1: accumulate. The token moves along ring edges only; every
	// hop is validated against the physical topology.
	hops := 0
	token := 0
	for i, v := range ring {
		token += nodes[v].datum
		next := ring[(i+1)%len(ring)]
		if !g.Adjacent(v, next) {
			log.Fatalf("hop %d: %s -> %s is not a physical link",
				i, repro.FormatVertex(v, n), repro.FormatVertex(next, n))
		}
		hops++
	}
	if token != expected {
		log.Fatalf("reduce produced %d, want %d", token, expected)
	}

	// Pass 2: broadcast the total.
	for _, v := range ring {
		nodes[v].sum = token
		hops++
	}
	for v, p := range nodes {
		if p.sum != expected {
			log.Fatalf("processor %s missed the broadcast", repro.FormatVertex(v, n))
		}
	}

	fmt.Printf("all-reduce complete: sum=%d in %d hops (2 ring laps)\n", token, hops)
	fmt.Printf("per-lap latency: %d hops — the minimum possible for %d participants\n",
		res.Len(), res.Len())
}
