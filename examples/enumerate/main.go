// Enumerate: all maximum fair cliques of a cell — not just one witness
// — plus the diversified top-r cut and the per-delta epoch diff of an
// incrementally maintained set.
//
//	go run ./examples/enumerate
package main

import (
	"fmt"
	"log"

	"fairclique"
)

func main() {
	// Ten people, attribute a = senior, b = junior (alternating), in
	// three perfectly balanced committees of four: {0,1,2,3} and
	// {0,1,4,5} overlap in the pair {0,1}; {6,7,8,9} is disjoint.
	g := fairclique.NewGraph(10)
	for v := 0; v < 10; v++ {
		if v%2 == 0 {
			g.SetAttr(v, fairclique.AttrA)
		} else {
			g.SetAttr(v, fairclique.AttrB)
		}
	}
	for _, committee := range [][]int{{0, 1, 2, 3}, {0, 1, 4, 5}, {6, 7, 8, 9}} {
		for i, u := range committee {
			for _, v := range committee[i+1:] {
				g.AddEdge(u, v)
			}
		}
	}

	sess := fairclique.NewSession(g)

	// Every maximum (2, 0)-fair clique: at least 2 of each attribute,
	// perfectly balanced. The set is canonical — each clique ascending,
	// the set in lexicographic order — and cached per epoch.
	all, err := sess.Enumerate(fairclique.QuerySpec{K: 2, Delta: 0, Kind: fairclique.KindEnumerateAll})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d maximum fair cliques of size %d:\n", len(all.Cliques), all.Size)
	for i, c := range all.Cliques {
		fmt.Printf("  %v (%d seniors, %d juniors)\n", c, all.Counts[i][0], all.Counts[i][1])
	}

	// The diversified top-2: picked greedily for distinct-vertex
	// coverage, so the two overlapping committees never crowd out the
	// disjoint one (the naive first-2 cut would cover only 6 people).
	top, err := sess.Enumerate(fairclique.QuerySpec{K: 2, Delta: 0, Kind: fairclique.KindTopR, R: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diversified top-2: %v\n", top.Cliques)

	// Apply maintains the cached set incrementally and reports the
	// per-cell diff: breaking an edge of {0,1,2,3} kills exactly that
	// clique, with no re-enumeration (the survivors are provably the
	// new set).
	ast, err := sess.Apply(fairclique.Delta{DelEdges: [][2]int{{2, 3}}})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range ast.EnumDiffs {
		fmt.Printf("after delta (k=%d δ=%d): died %v, born %v, recomputed=%v\n",
			d.K, d.Delta, d.Died, d.Born, d.Recomputed)
	}
}
