package fairclique_test

import (
	"fmt"
	"sort"

	"fairclique"
)

// The smallest end-to-end use: a balanced K4 is its own maximum
// (2, 0)-relative fair clique.
func ExampleFind() {
	g := fairclique.NewGraph(4)
	g.SetAttr(0, fairclique.AttrA)
	g.SetAttr(1, fairclique.AttrA)
	g.SetAttr(2, fairclique.AttrB)
	g.SetAttr(3, fairclique.AttrB)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	res, err := fairclique.Find(g, fairclique.DefaultOptions(2, 0))
	if err != nil {
		panic(err)
	}
	clique := append([]int(nil), res.Clique...)
	sort.Ints(clique)
	fmt.Println(clique, res.CountA, res.CountB)
	// Output: [0 1 2 3] 2 2
}

// δ trims an unbalanced clique: K6 with four a's and two b's supports
// only 3+2 vertices at δ=1.
func ExampleFind_delta() {
	g := fairclique.NewGraph(6)
	for v := 0; v < 4; v++ {
		g.SetAttr(v, fairclique.AttrA)
	}
	g.SetAttr(4, fairclique.AttrB)
	g.SetAttr(5, fairclique.AttrB)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	res, err := fairclique.Find(g, fairclique.DefaultOptions(2, 1))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Size(), res.CountA, res.CountB)
	// Output: 5 3 2
}

// The linear-time heuristic returns a fair clique and a proven upper
// bound on the optimum.
func ExampleHeuristic() {
	g := fairclique.NewGraph(6)
	for v := 0; v < 6; v++ {
		g.SetAttr(v, fairclique.Attr(v%2))
	}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	clique, ub, err := fairclique.Heuristic(g, 3, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(clique), ub)
	// Output: 6 6
}

// Reduce shows how much of the graph can possibly matter for a given k:
// a pendant vertex can never join a fair clique that needs common
// neighbours.
func ExampleReduce() {
	g := fairclique.NewGraph(5)
	for v := 0; v < 4; v++ {
		g.SetAttr(v, fairclique.Attr(v%2))
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	g.SetAttr(4, fairclique.AttrA)
	g.AddEdge(4, 0) // pendant

	kept, _, err := fairclique.Reduce(g, 2)
	if err != nil {
		panic(err)
	}
	sort.Ints(kept)
	fmt.Println(kept)
	// Output: [0 1 2 3]
}

// ModeStrong demands exactly equal attribute counts.
func ExampleFind_strong() {
	g := fairclique.NewGraph(5)
	g.SetAttr(0, fairclique.AttrA)
	g.SetAttr(1, fairclique.AttrA)
	g.SetAttr(2, fairclique.AttrA)
	g.SetAttr(3, fairclique.AttrB)
	g.SetAttr(4, fairclique.AttrB)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	res, err := fairclique.Find(g, fairclique.Options{K: 2, Mode: fairclique.ModeStrong})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Size(), res.CountA == res.CountB)
	// Output: 4 true
}
