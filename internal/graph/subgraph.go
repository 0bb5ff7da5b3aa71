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
// same edge set. It allocates a membership mask and an id table over
// g's ids, so it serves one-off calls; a caller inducing many sets of
// one graph shares a table through InduceComponent.
func Induce(g *Graph, vs []int32) *Subgraph {
	in := make([]bool, g.N())
	for _, v := range vs {
		if in[v] {
			panic("graph: Induce with duplicate vertex")
		}
		in[v] = true
	}
	return induce(g, slices.Clone(vs), in, make([]int32, g.N()), nil)
}

// InduceAlive returns the subgraph induced by vertices with alive[v]
// true, keeping only edges with edgeAlive[e] true (pass nil to keep all
// edges between alive vertices). This is how the peeling reductions
// materialize their result.
func InduceAlive(g *Graph, alive []bool, edgeAlive []bool) *Subgraph {
	var vs []int32
	for v, ok := range alive {
		if ok {
			vs = append(vs, int32(v))
		}
	}
	return induce(g, vs, alive, make([]int32, g.N()), edgeAlive)
}

// InduceComponent returns the subgraph of g induced by vs, which must
// ascend and be closed under alive adjacency (every neighbour of a
// member that alive marks is a member), as a set Components returns
// is; a nil alive marks every vertex, so vs must then be a connected
// component of all of g. vs[i] becomes vertex i, and ToParent is vs
// itself. local is a table over g's ids that it writes only at vs and
// reads only at their alive neighbours, so goroutines inducing disjoint
// sets of one alive mask may share it.
func InduceComponent(g *Graph, vs []int32, alive []bool, local []int32) *Subgraph {
	return induce(g, vs, alive, local, nil)
}

// induce is the one body of the induced-subgraph constructors: vs[i]
// becomes vertex i, a neighbour w of a member is a member exactly when
// in[w] (every neighbour when in is nil), and an edge e is kept when
// edgeAlive[e] (every edge when edgeAlive is nil). It writes local at
// vs and reads it only where in admits, and it reads only the members'
// adjacency lists. Row i keeps its members j > i; emitting the rows in
// order lists every edge once, sorted by (i, j), which is the canonical
// edge list fromSortedEdges places. ToParent is vs.
func induce(g *Graph, vs []int32, in []bool, local []int32, edgeAlive []bool) *Subgraph {
	attrs := make([]Attr, len(vs))
	for i, v := range vs {
		local[v] = int32(i)
		attrs[i] = g.Attr(v)
	}
	keep := func(w, e int32) bool {
		return (in == nil || in[w]) && (edgeAlive == nil || edgeAlive[e])
	}
	var edges [][2]int32
	if slices.IsSorted(vs) {
		// local increases with the parent id, so a row's members past
		// v, in adjacency order, are its larger new ids in order.
		for i, v := range vs {
			nbrs, eids := g.Neighbors(v), g.IncidentEdges(v)
			start, _ := slices.BinarySearch(nbrs, v)
			for x := start; x < len(nbrs); x++ {
				if w := nbrs[x]; keep(w, eids[x]) {
					edges = append(edges, [2]int32{int32(i), local[w]})
				}
			}
		}
		return &Subgraph{G: fromSortedEdges(attrs, edges), ToParent: vs}
	}
	var row []int32
	for i, v := range vs {
		row = row[:0]
		eids := g.IncidentEdges(v)
		for x, w := range g.Neighbors(v) {
			if keep(w, eids[x]) {
				if j := local[w]; j > int32(i) {
					row = append(row, j)
				}
			}
		}
		slices.Sort(row)
		for _, j := range row {
			edges = append(edges, [2]int32{int32(i), j})
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
// when alive is nil), each sorted, ordered by smallest vertex. The
// search labels every vertex with its component and counts the sizes;
// the lists are then cut from one array at their exact sizes and
// filled in id order, so none grows and none needs a sort.
func Components(g *Graph, alive []bool) [][]int32 {
	label := make([]int32, g.N()) // component index + 1; 0 = not reached
	var sizes []int32
	var stack []int32
	for s := int32(0); s < g.N(); s++ {
		if label[s] != 0 || (alive != nil && !alive[s]) {
			continue
		}
		c := int32(len(sizes)) + 1
		label[s] = c
		size := int32(1)
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if label[w] == 0 && (alive == nil || alive[w]) {
					label[w] = c
					size++
					stack = append(stack, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	comps := make([][]int32, len(sizes))
	var total int32
	for _, size := range sizes {
		total += size
	}
	members := make([]int32, total)
	var off int32
	for c, size := range sizes {
		comps[c] = members[off : off : off+size]
		off += size
	}
	for v, c := range label {
		if c != 0 {
			comps[c-1] = append(comps[c-1], int32(v))
		}
	}
	return comps
}
