// Scheduler hand-off: compute an embedding once, persist it in the
// compact binary format, and later re-load and re-verify it against the
// live fault set before use — the workflow of a job scheduler that maps
// ring-structured jobs onto a star-graph machine and must not trust
// stale embeddings.
package main

import (
	"bytes"
	"fmt"
	"log"

	repro "repro"
)

func main() {
	const n = 7
	fs := repro.NewFaultSet(n)
	for _, v := range []string{"2134567", "3124567"} {
		if err := fs.AddVertexString(v); err != nil {
			log.Fatal(err)
		}
	}

	// Compute and persist.
	plan, err := repro.EmbedRing(n, fs, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res := plan.Result()
	var store bytes.Buffer // stands in for a file or an RPC payload
	if err := repro.SaveRing(&store, n, plan.Ring()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("computed ring of %d vertices; serialized to %d bytes (%.2f B/vertex)\n",
		res.Len(), store.Len(), float64(store.Len())/float64(res.Len()))

	// Later: load and re-verify against the CURRENT fault set.
	gotN, ring, err := repro.LoadRing(bytes.NewReader(store.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.VerifyRing(repro.NewGraph(gotN), ring, fs, res.Guarantee); err != nil {
		log.Fatal(err)
	}
	fmt.Println("reloaded embedding verified against the live fault set: ok")

	// A new failure invalidates the stored embedding; verification
	// catches it and the scheduler recomputes.
	if err := fs.AddVertex(ring[10]); err != nil {
		log.Fatal(err)
	}
	if err := repro.VerifyRing(repro.NewGraph(gotN), ring, fs, 0); err != nil {
		fmt.Printf("stale embedding rejected after new failure: %v\n", err)
	} else {
		log.Fatal("stale embedding was not rejected")
	}
	freshPlan, err := repro.EmbedRing(n, fs, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fresh := freshPlan.Result()
	fmt.Printf("recomputed ring: %d vertices (was %d)\n", fresh.Len(), res.Len())
}
