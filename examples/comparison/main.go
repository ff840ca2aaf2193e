// Comparison: all three embedding algorithms on identical fault sets,
// showing the guarantee landscape the paper's evaluation claims —
// the paper's n!-2|Fv| dominates Tseng's n!-4|Fv| everywhere, while
// against the clustered bound n!-m! there is a genuine crossover at
// m! = 2|Fv|: excising a tightly packed cluster is cheaper than paying
// 2 per fault, but as soon as faults spread (m grows) the clustered
// bound collapses.
package main

import (
	"fmt"
	"log"
	"math/rand"

	repro "repro"
	"repro/internal/faults"
)

func main() {
	const n = 7
	rng := rand.New(rand.NewSource(3))

	fmt.Printf("S_%d, comparing on identical fault sets (lengths are measured, not just bounds)\n\n", n)
	fmt.Printf("%-28s %-6s %-8s %-8s %-8s %-10s\n",
		"fault set", "|Fv|", "paper", "tseng", "latifi", "winner")

	type scenario struct {
		name string
		fs   *repro.FaultSet
	}
	scenarios := []scenario{}

	// Spread faults: the paper's home turf.
	scenarios = append(scenarios,
		scenario{"4 spread faults", faults.RandomVertices(n, 4, rng)})

	// Clustered faults: two in one S_2 (an adjacent pair): m! = 2 <
	// 2|Fv| = 4, so excising the cluster beats paying 2 per fault.
	if fs, _, err := faults.ClusteredVertices(n, 2, 2, rng); err == nil {
		scenarios = append(scenarios, scenario{"2 faults in one S_2", fs})
	}

	// Clustered faults: four packed into one S_3: still dense enough
	// (3! = 6 < 2|Fv| = 8) for the clustered bound to win, but only
	// barely; a fifth spread fault would flip it.
	if fs, _, err := faults.ClusteredVertices(n, 4, 3, rng); err == nil {
		scenarios = append(scenarios, scenario{"4 faults in one S_3", fs})
	}

	for _, sc := range scenarios {
		plan, err := repro.EmbedRing(n, sc.fs, repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		p := plan.Result()
		t, err := repro.EmbedRingTseng(n, sc.fs, repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		lat := "n/a"
		latLen := -1
		if l, err := repro.EmbedRingClustered(n, sc.fs, repro.Options{}); err == nil {
			lat = fmt.Sprint(len(l.Ring))
			latLen = len(l.Ring)
		}
		winner := "paper"
		if latLen > p.Len() {
			winner = "latifi"
		} else if latLen == p.Len() {
			winner = "tie"
		}
		fmt.Printf("%-28s %-6d %-8d %-8d %-8s %-10s\n",
			sc.name, sc.fs.NumVertices(), p.Len(), len(t.Ring), lat, winner)
	}

	fmt.Println("\npaper - tseng = 2|Fv| always; paper - latifi = 2|Fv| - m! flips sign at 2|Fv| = m!.")
}
