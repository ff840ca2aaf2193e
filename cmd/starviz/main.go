// Command starviz renders embedding structures for inspection: the
// whole star graph, the R4 super-ring of one embedding (blocks as
// nodes, colored by fault status), or the path through a single block —
// as Graphviz DOT on stdout, ready for `dot -Tsvg`.
//
// Usage:
//
//	starviz -n 4                        # S_4 itself as DOT
//	starviz -n 6 -random 3 -mode ring   # R4 super-ring of an embedding
//	starviz -n 6 -random 3 -mode block  # detail of the first faulty block
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/substar"
)

func main() {
	var (
		n      = flag.Int("n", 4, "star-graph dimension")
		random = flag.Int("random", 0, "number of random vertex faults")
		seed   = flag.Int64("seed", 1, "fault seed")
		mode   = flag.String("mode", "graph", "graph | ring | block")
	)
	flag.Parse()

	// Validate before drawing faults: an out-of-range dimension would
	// panic the generator, and more distinct faults than S_n has
	// vertices would never finish drawing.
	if *n < 1 || *n > perm.MaxN {
		fmt.Fprintf(os.Stderr, "starviz: -n %d out of range [1,%d]\n", *n, perm.MaxN)
		os.Exit(1)
	}
	if *random < 0 {
		fmt.Fprintf(os.Stderr, "starviz: -random %d is negative\n", *random)
		os.Exit(1)
	}
	if order := perm.Factorial(*n); *random > order {
		fmt.Fprintf(os.Stderr, "starviz: -random %d exceeds the %d vertices of S_%d\n", *random, order, *n)
		os.Exit(1)
	}

	fs := faults.NewSet(*n)
	if *random > 0 {
		rng := rand.New(rand.NewSource(*seed))
		for _, v := range faults.RandomVertices(*n, *random, rng).Vertices() {
			fs.AddVertex(v)
		}
	}

	switch *mode {
	case "graph":
		emitGraph(*n, fs)
	case "ring":
		emitSuperRing(*n, fs)
	case "block":
		emitBlock(*n, fs)
	default:
		fmt.Fprintf(os.Stderr, "starviz: unknown mode %q\n", *mode)
		os.Exit(1)
	}
}

// emitGraph writes all of S_n (sensible for n <= 5).
func emitGraph(n int, fs *faults.Set) {
	if n > 5 {
		fmt.Fprintln(os.Stderr, "starviz: -mode graph only renders n <= 5 (n! nodes)")
		os.Exit(1)
	}
	g := star.New(n)
	fmt.Println("graph S {")
	fmt.Println("  layout=neato; node [shape=circle, fontsize=9];")
	g.Vertices(func(v perm.Code) bool {
		attrs := ""
		if fs.HasVertex(v) {
			attrs = ", style=filled, fillcolor=indianred"
		} else if g.PartiteSet(v) == 1 {
			attrs = ", style=filled, fillcolor=lightsteelblue"
		}
		fmt.Printf("  %q [label=%q%s];\n", v.StringN(n), v.StringN(n), attrs)
		return true
	})
	g.Vertices(func(v perm.Code) bool {
		g.VisitNeighbors(v, func(w perm.Code, dim int) bool {
			if v < w {
				fmt.Printf("  %q -- %q [label=%d, fontsize=7];\n", v.StringN(n), w.StringN(n), dim)
			}
			return true
		})
		return true
	})
	fmt.Println("}")
}

// emitSuperRing writes the R4 supervertex ring of an embedding, blocks
// colored by fault count.
func emitSuperRing(n int, fs *faults.Set) {
	if n < 5 {
		fmt.Fprintln(os.Stderr, "starviz: -mode ring needs n >= 5")
		os.Exit(1)
	}
	positions, _ := fs.SeparatingPositions()
	r4, err := core.BuildR4(n, fs, core.BuildSpec{
		Positions:      positions,
		SpreadFaults:   true,
		HealthyBorders: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "starviz:", err)
		os.Exit(1)
	}
	fmt.Println("digraph R4 {")
	fmt.Println("  layout=circo; node [shape=box, fontsize=9];")
	m := r4.Len()
	for i := 0; i < m; i++ {
		p := r4.At(i)
		color := "white"
		if fs.CountIn(p) > 0 {
			color = "indianred"
		}
		fmt.Printf("  b%d [label=%q, style=filled, fillcolor=%s];\n", i, patternLabel(p), color)
	}
	for i := 0; i < m; i++ {
		fmt.Printf("  b%d -> b%d;\n", i, (i+1)%m)
	}
	fmt.Println("}")
}

// emitBlock writes one block's interior: its 24 vertices, the embedded
// ring's path through it highlighted, the fault marked.
func emitBlock(n int, fs *faults.Set) {
	if n < 5 {
		fmt.Fprintln(os.Stderr, "starviz: -mode block needs n >= 5")
		os.Exit(1)
	}
	eng, err := core.NewEmbedder(n, core.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "starviz:", err)
		os.Exit(1)
	}
	plan, err := eng.Embed(fs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starviz:", err)
		os.Exit(1)
	}
	res, ring := plan.Result(), plan.Ring()
	// Reconstruct the block containing the first fault (or the block of
	// the first ring vertex when fault-free).
	anchor := ring[0]
	if fs.NumVertices() > 0 {
		anchor = fs.Vertices()[0]
	}
	pat := substar.PatternOf(n, anchor, res.Positions)
	g := star.New(n)

	onRing := map[perm.Code]int{}
	for i, v := range ring {
		onRing[v] = i
	}
	fmt.Println("graph Block {")
	fmt.Printf("  label=%q; layout=neato; node [shape=circle, fontsize=8];\n", patternLabel(pat))
	verts := pat.Vertices(nil)
	for _, v := range verts {
		attrs := ""
		_, used := onRing[v]
		switch {
		case fs.HasVertex(v):
			attrs = ", style=filled, fillcolor=indianred"
		case used:
			attrs = ", style=filled, fillcolor=palegreen"
		}
		fmt.Printf("  %q [label=%q%s];\n", v.StringN(n), v.StringN(n), attrs)
	}
	for _, v := range verts {
		g.VisitNeighbors(v, func(w perm.Code, _ int) bool {
			if !pat.Contains(w) || w < v {
				return true
			}
			style := "dotted"
			if i, ok := onRing[v]; ok {
				if j, ok2 := onRing[w]; ok2 {
					d := i - j
					if d < 0 {
						d = -d
					}
					if d == 1 || d == len(ring)-1 {
						style = "bold"
					}
				}
			}
			fmt.Printf("  %q -- %q [style=%s];\n", v.StringN(n), w.StringN(n), style)
			return true
		})
	}
	fmt.Println("}")
}

func patternLabel(p substar.Pattern) string { return p.String() }
