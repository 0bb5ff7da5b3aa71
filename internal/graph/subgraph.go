package graph

import "slices"

// Subgraph is a vertex-induced (and optionally edge-filtered) subgraph
// together with the mapping back to the parent graph's vertex ids.
type Subgraph struct {
	// G is the induced subgraph with dense vertex ids.
	G *Graph
	// ToParent maps a subgraph vertex id to the parent vertex id.
	ToParent []int32
}

// MapToParent translates a set of subgraph vertices to parent ids.
func (s *Subgraph) MapToParent(vs []int32) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = s.ToParent[v]
	}
	return out
}

// Induce returns the subgraph induced by the given vertex set: vs[i]
// becomes vertex i. Vertices may appear in any order; duplicates are an
// error in the caller and will panic. Edge ids in the subgraph are
// renumbered densely, and the CSR is the one Builder returns for the
// same edge set.
func Induce(g *Graph, vs []int32) *Subgraph {
	// byID sorts (parent id, sub id) pairs packed into one key, so a
	// neighbour's sub id is a binary search away and a duplicate sits
	// next to its twin whatever order vs came in.
	byID := make([]uint64, len(vs))
	attrs := make([]Attr, len(vs))
	for i, v := range vs {
		byID[i] = uint64(v)<<32 | uint64(i)
		attrs[i] = g.Attr(v)
	}
	slices.Sort(byID)
	for i := 1; i < len(byID); i++ {
		if byID[i]>>32 == byID[i-1]>>32 {
			panic("graph: Induce with duplicate vertex")
		}
	}
	// Row i keeps its neighbours j > i; emitting the rows in order
	// lists every edge once, sorted by (i, j). A row comes out sorted
	// already when vs ascends.
	var edges [][2]int32
	var row []int32
	for i, v := range vs {
		row = row[:0]
		for _, w := range g.Neighbors(v) {
			k, _ := slices.BinarySearch(byID, uint64(w)<<32)
			if k == len(byID) || byID[k]>>32 != uint64(w) {
				continue
			}
			if j := int32(uint32(byID[k])); j > int32(i) {
				row = append(row, j)
			}
		}
		slices.Sort(row)
		for _, j := range row {
			edges = append(edges, [2]int32{int32(i), j})
		}
	}
	return &Subgraph{G: fromSortedEdges(attrs, edges), ToParent: slices.Clone(vs)}
}

// InduceAlive returns the subgraph induced by vertices with alive[v]
// true, keeping only edges with edgeAlive[e] true (pass nil to keep all
// edges between alive vertices). This is how the peeling reductions
// materialize their result.
func InduceAlive(g *Graph, alive []bool, edgeAlive []bool) *Subgraph {
	toSub := make([]int32, g.N())
	var vs []int32
	for v := int32(0); v < g.N(); v++ {
		if alive[v] {
			toSub[v] = int32(len(vs))
			vs = append(vs, v)
		} else {
			toSub[v] = -1
		}
	}
	attrs := make([]Attr, len(vs))
	for i, v := range vs {
		attrs[i] = g.Attr(v)
	}
	// toSub increases on the alive vertices, so g's sorted edge order
	// maps to a sorted, canonical edge list.
	var edges [][2]int32
	for e, uv := range g.edges {
		if edgeAlive != nil && !edgeAlive[e] {
			continue
		}
		if su, sv := toSub[uv[0]], toSub[uv[1]]; su >= 0 && sv >= 0 {
			edges = append(edges, [2]int32{su, sv})
		}
	}
	return &Subgraph{G: fromSortedEdges(attrs, edges), ToParent: vs}
}

// InduceComponent returns the subgraph of g induced by vs, which must
// ascend and be closed under alive adjacency (every neighbour of a
// member that alive marks is a member), as a set Components returns
// is: vs[i] becomes vertex i, and ToParent is vs itself. It returns the
// CSR Induce(g, vs) returns, without a search per neighbour: local is a
// table over g's ids that it writes only at vs and reads only at their
// alive neighbours, so goroutines inducing disjoint sets of one alive
// mask may share it.
func InduceComponent(g *Graph, vs []int32, alive []bool, local []int32) *Subgraph {
	attrs := make([]Attr, len(vs))
	for i, v := range vs {
		local[v] = int32(i)
		attrs[i] = g.Attr(v)
	}
	// local increases with the parent id inside vs, so each member's
	// larger alive neighbours, in row order, list the edges sorted by
	// (i, j).
	var edges [][2]int32
	for i, v := range vs {
		for _, w := range g.Neighbors(v) {
			if w > v && alive[w] {
				edges = append(edges, [2]int32{int32(i), local[w]})
			}
		}
	}
	return &Subgraph{G: fromSortedEdges(attrs, edges), ToParent: vs}
}

// ConnectedComponents returns the vertex sets of the connected
// components of g, each sorted by vertex id, ordered by smallest
// contained vertex. Isolated vertices form singleton components.
func ConnectedComponents(g *Graph) [][]int32 {
	return Components(g, nil)
}

// Components returns the vertex sets of the connected components of
// the subgraph induced by the vertices with alive[v] true (all of g
// when alive is nil), each sorted, ordered by smallest vertex.
func Components(g *Graph, alive []bool) [][]int32 {
	seen := make([]bool, g.N())
	var comps [][]int32
	var stack []int32
	for s := int32(0); s < g.N(); s++ {
		if seen[s] || (alive != nil && !alive[s]) {
			continue
		}
		seen[s] = true
		members := []int32{s}
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if !seen[w] && (alive == nil || alive[w]) {
					seen[w] = true
					stack = append(stack, w)
					members = append(members, w)
				}
			}
		}
		slices.Sort(members)
		comps = append(comps, members)
	}
	return comps
}

// EdgeSubset returns a graph with all vertices of g but only the edges
// whose ids appear in keep. Used by the Fig. 9 edge-scalability sweep.
func EdgeSubset(g *Graph, keep []int32) *Graph {
	b := NewBuilder(int(g.N()))
	for v := int32(0); v < g.N(); v++ {
		b.SetAttr(v, g.Attr(v))
	}
	for _, e := range keep {
		u, v := g.Edge(e)
		b.AddEdge(u, v)
	}
	return b.Build()
}
