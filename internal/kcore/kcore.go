// Package kcore implements classic (attribute-oblivious) core
// decomposition and related degeneracy machinery: core numbers via
// bucket peeling, degeneracy ordering, threshold k-core peeling, and
// the graph h-index. MaxRFC uses these for the ub△ and ubh upper bounds
// (Lemmas 10–11) and HeurRFC uses k-core reduction after a heuristic
// clique is found (Algorithm 6, lines 3 and 8).
package kcore

import "fairclique/internal/graph"

// Decomposition is the result of a full core decomposition.
type Decomposition struct {
	// Core[v] is the core number of vertex v.
	Core []int32
	// Order is the peeling order (degeneracy order): vertices in the
	// sequence they were removed, i.e. non-decreasing core number.
	Order []int32
	// Degeneracy is the maximum core number (0 for an empty graph).
	Degeneracy int32
}

// Decompose computes core numbers with the standard O(|V|+|E|)
// bucket-queue peeling algorithm (Batagelj–Zaveršnik).
func Decompose(g *graph.Graph) *Decomposition {
	n := g.N()
	d := &Decomposition{
		Core:  make([]int32, n),
		Order: make([]int32, 0, n),
	}
	if n == 0 {
		return d
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := int32(0); v < n; v++ {
		deg[v] = g.Deg(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	binStart := make([]int32, maxDeg+2)
	for v := int32(0); v < n; v++ {
		binStart[deg[v]+1]++
	}
	for i := int32(1); i <= maxDeg+1; i++ {
		binStart[i] += binStart[i-1]
	}
	pos := make([]int32, n)  // position of vertex in vert
	vert := make([]int32, n) // vertices sorted by current degree
	fill := append([]int32(nil), binStart[:maxDeg+1]...)
	for v := int32(0); v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = v
		fill[deg[v]]++
	}
	// binStart[d] = first index in vert of a vertex with degree d.
	bin := make([]int32, maxDeg+1)
	copy(bin, binStart[:maxDeg+1])

	for i := int32(0); i < n; i++ {
		v := vert[i]
		d.Core[v] = deg[v]
		if deg[v] > d.Degeneracy {
			d.Degeneracy = deg[v]
		}
		d.Order = append(d.Order, v)
		for _, w := range g.Neighbors(v) {
			if deg[w] > deg[v] {
				// Move w one bucket down: swap with the first vertex of
				// its bucket, then shrink the bucket.
				dw := deg[w]
				pw := pos[w]
				ps := bin[dw]
				s := vert[ps]
				if s != w {
					vert[pw], vert[ps] = s, w
					pos[w], pos[s] = ps, pw
				}
				bin[dw]++
				deg[w]--
			}
		}
	}
	return d
}

// Degeneracy returns the degeneracy of g.
func Degeneracy(g *graph.Graph) int32 {
	return Decompose(g).Degeneracy
}

// KCore returns the vertex-alive mask of the k-core of g (the maximal
// subgraph with minimum degree >= k). Vertices outside the core are
// false.
func KCore(g *graph.Graph, k int32) []bool {
	alive, _ := peel(g, k)
	return alive
}

// peel computes the k-core by removing only the vertices that fall
// below k: every vertex of degree < k goes on a stack, and each
// removal decrements its alive neighbours, stacking any that drop
// below k. It never orders the vertices that stay, so it touches the
// adjacency of removed vertices only. deg[v] ends as v's degree inside
// the core for every alive v.
func peel(g *graph.Graph, k int32) (alive []bool, deg []int32) {
	n := g.N()
	alive = make([]bool, n)
	deg = make([]int32, n)
	var stack []int32
	for v := int32(0); v < n; v++ {
		deg[v] = g.Deg(v)
		if deg[v] < k {
			stack = append(stack, v)
		} else {
			alive[v] = true
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !alive[w] {
				continue
			}
			deg[w]--
			if deg[w] < k {
				alive[w] = false
				stack = append(stack, w)
			}
		}
	}
	return alive, deg
}

// KCoreSubgraph materializes the k-core as a subgraph with its mapping.
func KCoreSubgraph(g *graph.Graph, k int32) *graph.Subgraph {
	return graph.InduceAlive(g, KCore(g, k), nil)
}

// HIndex returns the h-index of the degree sequence of g: the largest h
// such that at least h vertices have degree >= h. O(|V|).
func HIndex(g *graph.Graph) int32 {
	return HIndexOf(degreeSeq(g))
}

func degreeSeq(g *graph.Graph) []int32 {
	seq := make([]int32, g.N())
	for v := int32(0); v < g.N(); v++ {
		seq[v] = g.Deg(v)
	}
	return seq
}

// HIndexOf returns the h-index of an arbitrary non-negative sequence:
// the largest h with at least h entries >= h. Counting implementation,
// O(len(seq)).
func HIndexOf(seq []int32) int32 {
	n := int32(len(seq))
	if n == 0 {
		return 0
	}
	// counts[d] = number of entries with value exactly min(d, n).
	counts := make([]int32, n+1)
	for _, d := range seq {
		if d > n {
			d = n
		}
		if d < 0 {
			d = 0
		}
		counts[d]++
	}
	var cum int32
	for h := n; h >= 1; h-- {
		cum += counts[h]
		if cum >= h {
			return h
		}
	}
	return 0
}
