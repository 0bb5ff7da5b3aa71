// Package color implements degree-based greedy graph coloring, the
// coloring primitive every colorful structure in the paper builds on
// (§III-A, citing Hasenplaugh et al. [30]): vertices are processed in
// non-increasing degree order and each takes the smallest color not
// used by an already-colored neighbour. Adjacent vertices therefore
// always receive distinct colors, which is what lets a color class act
// as an independent set in all the clique bounds.
package color

import (
	"fmt"

	"fairclique/internal/graph"
)

// Coloring holds a proper vertex coloring of a graph.
type Coloring struct {
	// Colors[v] is the color of vertex v, a dense id in [0, Num).
	Colors []int32
	// Num is the number of distinct colors used.
	Num int32
}

// Of returns the color of v.
func (c *Coloring) Of(v int32) int32 { return c.Colors[v] }

// Greedy colors g with the degree-based greedy heuristic: vertices in
// non-increasing degree order (ties broken by id for determinism), each
// assigned the smallest color absent from its colored neighbours.
// Runs in O(|V| + |E|) using counting sort on degrees.
func Greedy(g *graph.Graph) *Coloring {
	return GreedyOn(g, nil, nil, make([]int32, g.N()))
}

// GreedyOn colours the vertex set vs of g in place: it writes colors[v]
// for each v in vs and returns a Coloring over colors, which is valid
// only at vs. vs must ascend and be closed under alive adjacency (every
// neighbour of a member that alive marks is a member), as a component
// of the subgraph alive induces is. A member's degree in Induce(g, vs).G
// is then its alive degree, and ids order the members the same way in
// both graphs, so vs[i] gets the colour that Greedy gives vertex i of
// Induce(g, vs).G. A nil vs stands for every vertex of g and a nil
// alive for every vertex alive; Greedy(g) is GreedyOn on all of g.
//
// colors must be negative at every neighbour of vs that alive leaves
// out: the colouring loop reads a neighbour's colour without asking
// alive (an alive test there cost Greedy about 6%), so a caller
// colouring several sets fills colors with -1 once. GreedyOn writes
// colors only at vs, so goroutines may colour disjoint sets of one
// alive mask into one slice.
func GreedyOn(g *graph.Graph, vs []int32, alive []bool, colors []int32) *Coloring {
	order := degreeDescOrder(g, vs, alive, colors)
	for _, v := range order {
		colors[v] = -1
	}
	// used[c] == v marks color c as used by a neighbour of the vertex v
	// being colored; reusing the array avoids clearing.
	used := make([]int32, len(order)+1)
	for i := range used {
		used[i] = -1
	}
	var numColors int32
	for _, v := range order {
		for _, w := range g.Neighbors(v) {
			if cw := colors[w]; cw >= 0 {
				used[cw] = v
			}
		}
		c := int32(0)
		for used[c] == v {
			c++
		}
		colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	return &Coloring{Colors: colors, Num: numColors}
}

// degreeDescOrder returns the ascending vertex set vs (every vertex of g
// when nil) sorted by non-increasing alive degree, ties broken by
// increasing id: a counting sort over the degrees, O(|vs| + their
// degrees), which it keeps in deg[v] for each member v.
func degreeDescOrder(g *graph.Graph, vs []int32, alive []bool, deg []int32) []int32 {
	n := int32(len(vs))
	if vs == nil {
		n = g.N()
	}
	member := func(i int32) int32 {
		if vs == nil {
			return i
		}
		return vs[i]
	}
	var maxDeg int32
	for i := int32(0); i < n; i++ {
		v := member(i)
		d := g.Deg(v)
		if alive != nil {
			d = 0
			for _, w := range g.Neighbors(v) {
				if alive[w] {
					d++
				}
			}
		}
		deg[v] = d
		maxDeg = max(maxDeg, d)
	}
	// Prefix sums for descending order: degree d's slots start after
	// those of every larger degree.
	starts := make([]int32, maxDeg+1)
	for i := int32(0); i < n; i++ {
		starts[deg[member(i)]]++
	}
	var acc int32
	for d := maxDeg; d >= 0; d-- {
		starts[d], acc = acc, acc+starts[d]
	}
	order := make([]int32, n)
	for i := int32(0); i < n; i++ {
		v := member(i)
		order[starts[deg[v]]] = v
		starts[deg[v]]++
	}
	return order
}

// Validate confirms the coloring is proper and dense; used by tests.
func (c *Coloring) Validate(g *graph.Graph) error {
	if int32(len(c.Colors)) != g.N() {
		return fmt.Errorf("color: %d colors for %d vertices", len(c.Colors), g.N())
	}
	seen := make([]bool, c.Num)
	for v := int32(0); v < g.N(); v++ {
		cv := c.Colors[v]
		if cv < 0 || cv >= c.Num {
			return fmt.Errorf("color: vertex %d has color %d outside [0,%d)", v, cv, c.Num)
		}
		seen[cv] = true
		for _, w := range g.Neighbors(v) {
			if c.Colors[w] == cv {
				return fmt.Errorf("color: adjacent vertices %d and %d share color %d", v, w, cv)
			}
		}
	}
	for col, ok := range seen {
		if !ok {
			return fmt.Errorf("color: color %d unused (not dense)", col)
		}
	}
	return nil
}

// ClassSizes returns the number of vertices per color.
func (c *Coloring) ClassSizes() []int32 {
	sizes := make([]int32, c.Num)
	for _, col := range c.Colors {
		sizes[col]++
	}
	return sizes
}
