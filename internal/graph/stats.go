package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Stats summarizes a graph for experiment logs, mirroring the columns
// of Table I in the paper (n, m, dmax) plus attribute balance.
type Stats struct {
	N, M       int32
	MaxDeg     int32
	NumA, NumB int32
	AvgDeg     float64
	Components int
}

// Summarize computes Stats for g.
func Summarize(g *Graph) Stats {
	na, nb := g.AttrCount()
	s := Stats{
		N:      g.N(),
		M:      g.M(),
		MaxDeg: g.MaxDegree(),
		NumA:   na,
		NumB:   nb,
	}
	if g.N() > 0 {
		s.AvgDeg = 2 * float64(g.M()) / float64(g.N())
	}
	s.Components = len(ConnectedComponents(g))
	return s
}

// String formats the stats as a single log line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d dmax=%d avgdeg=%.2f a=%d b=%d comps=%d",
		s.N, s.M, s.MaxDeg, s.AvgDeg, s.NumA, s.NumB, s.Components)
}

// DegreeHistogram returns counts[d] = number of vertices of degree d.
func DegreeHistogram(g *Graph) []int {
	h := make([]int, g.MaxDegree()+1)
	for v := int32(0); v < g.N(); v++ {
		h[g.Deg(v)]++
	}
	return h
}

// TriangleCount returns the number of triangles in g, computed by
// forward edge orientation (each triangle counted once). Used by tests
// and dataset summaries; O(α·m).
func TriangleCount(g *Graph) int64 {
	// Orient edges from lower (degree, id) to higher to bound work by
	// arboricity.
	n := g.N()
	rank := make([]int32, n)
	order := make([]int32, n)
	for i := int32(0); i < n; i++ {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(g.Deg(a), g.Deg(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i, v := range order {
		rank[v] = int32(i)
	}
	fwd := make([][]int32, n)
	for v := int32(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if rank[w] > rank[v] {
				fwd[v] = append(fwd[v], w)
			}
		}
	}
	var count int64
	mark := make([]bool, n)
	for v := int32(0); v < n; v++ {
		for _, w := range fwd[v] {
			mark[w] = true
		}
		for _, w := range fwd[v] {
			for _, x := range fwd[w] {
				if mark[x] {
					count++
				}
			}
		}
		for _, w := range fwd[v] {
			mark[w] = false
		}
	}
	return count
}
