// Command starinfo prints structural facts about S_n and answers
// distance/routing queries — a small window into the substrate the
// embedder runs on.
//
// Usage:
//
//	starinfo -n 5                        # graph summary
//	starinfo -n 5 -from 12345 -to 32145  # distance + a shortest path
//	starinfo -n 4 -neighbors 1234        # adjacency of one vertex
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/perm"
	"repro/internal/star"
)

func main() {
	var (
		n         = flag.Int("n", 5, "star-graph dimension")
		from      = flag.String("from", "", "source vertex for a routing query")
		to        = flag.String("to", "", "target vertex for a routing query")
		neighbors = flag.String("neighbors", "", "list the neighbors of this vertex")
		disjoint  = flag.Bool("disjoint", false, "with -from/-to: also print n-1 node-disjoint paths")
	)
	flag.Parse()

	// star.New panics outside [1, perm.MaxN]; a bad -n is user input.
	if *n < 1 || *n > perm.MaxN {
		fmt.Fprintf(os.Stderr, "starinfo: -n %d out of range [1,%d]\n", *n, perm.MaxN)
		os.Exit(1)
	}
	g := star.New(*n)
	fmt.Printf("S_%d: %d vertices, %d edges, degree %d, diameter %d, bipartite (two sides of %d)\n",
		*n, g.Order(), g.Size(), g.Degree(), g.Diameter(), g.Order()/2)

	if *neighbors != "" {
		v := parse(*neighbors, *n)
		fmt.Printf("neighbors of %s (parity %d):\n", v.StringN(*n), g.PartiteSet(v))
		g.VisitNeighbors(v, func(w perm.Code, dim int) bool {
			fmt.Printf("  dim %d: %s\n", dim, w.StringN(*n))
			return true
		})
	}

	if *from != "" && *to != "" {
		u, v := parse(*from, *n), parse(*to, *n)
		d := g.Distance(u, v)
		path := g.Route(u, v)
		fmt.Printf("distance(%s, %s) = %d\n", u.StringN(*n), v.StringN(*n), d)
		fmt.Print("shortest path:")
		for _, p := range path {
			fmt.Printf(" %s", p.StringN(*n))
		}
		fmt.Println()
		if len(path)-1 != d {
			fmt.Fprintln(os.Stderr, "starinfo: internal: route length disagrees with distance formula")
			os.Exit(1)
		}
		if *disjoint {
			paths, err := g.DisjointPaths(u, v)
			if err != nil {
				fmt.Fprintln(os.Stderr, "starinfo:", err)
				os.Exit(1)
			}
			fmt.Printf("%d node-disjoint paths (connectivity %d):\n", len(paths), g.Connectivity())
			for i, p := range paths {
				fmt.Printf("  path %d (%d hops):", i+1, len(p)-1)
				for _, w := range p {
					fmt.Printf(" %s", w.StringN(*n))
				}
				fmt.Println()
			}
		}
	}
}

func parse(s string, n int) perm.Code {
	v, err := perm.ParseCode(s, n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starinfo: %q is not a vertex of S_%d\n", s, n)
		os.Exit(1)
	}
	return v
}
