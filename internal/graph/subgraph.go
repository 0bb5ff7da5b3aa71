package graph

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

// Induce returns the subgraph induced by the given vertex set. Vertices
// may appear in any order; duplicates are an error in the caller and
// will panic. Edge ids in the subgraph are renumbered densely.
func Induce(g *Graph, vs []int32) *Subgraph {
	toSub := make(map[int32]int32, len(vs))
	b := NewBuilder(len(vs))
	for i, v := range vs {
		if _, dup := toSub[v]; dup {
			panic("graph: Induce with duplicate vertex")
		}
		toSub[v] = int32(i)
		b.SetAttr(int32(i), g.Attr(v))
	}
	for i, v := range vs {
		for _, w := range g.Neighbors(v) {
			if j, ok := toSub[w]; ok && j > int32(i) {
				b.AddEdge(int32(i), j)
			}
		}
	}
	return &Subgraph{G: b.Build(), ToParent: append([]int32(nil), vs...)}
}

// Permute returns a copy of g relabeled by the given permutation: new
// vertex i is old vertex order[i]. Unlike Induce(g, order) it needs no
// hash map — the mapping is a dense bijection.
func Permute(g *Graph, order []int32) *Graph {
	n := g.N()
	inv := make([]int32, n)
	for i, v := range order {
		inv[v] = int32(i)
	}
	b := NewBuilder(int(n))
	for i, v := range order {
		b.SetAttr(int32(i), g.Attr(v))
	}
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		b.AddEdge(inv[u], inv[v])
	}
	return b.Build()
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
	b := NewBuilder(len(vs))
	for i, v := range vs {
		b.SetAttr(int32(i), g.Attr(v))
	}
	for e := int32(0); e < g.M(); e++ {
		if edgeAlive != nil && !edgeAlive[e] {
			continue
		}
		u, v := g.Edge(e)
		su, sv := toSub[u], toSub[v]
		if su >= 0 && sv >= 0 {
			b.AddEdge(su, sv)
		}
	}
	return &Subgraph{G: b.Build(), ToParent: vs}
}

// ConnectedComponents returns the vertex sets of the connected
// components of g, each sorted by vertex id, ordered by smallest
// contained vertex. Isolated vertices form singleton components.
func ConnectedComponents(g *Graph) [][]int32 {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int32
	var stack []int32
	for s := int32(0); s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		comp[s] = id
		stack = append(stack[:0], s)
		members := []int32{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = id
					stack = append(stack, w)
					members = append(members, w)
				}
			}
		}
		sortInt32s(members)
		comps = append(comps, members)
	}
	return comps
}

func sortInt32s(s []int32) {
	// Small shim to avoid pulling in sort.Slice closures in hot paths.
	if len(s) < 2 {
		return
	}
	quickSortInt32(s)
}

func quickSortInt32(s []int32) {
	for len(s) > 12 {
		p := medianOfThree(s)
		i, j := 0, len(s)-1
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if j+1 < len(s)-i {
			quickSortInt32(s[:j+1])
			s = s[i:]
		} else {
			quickSortInt32(s[i:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func medianOfThree(s []int32) int32 {
	a, b, c := s[0], s[len(s)/2], s[len(s)-1]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

// RandomVertexSubset is used by the scalability experiment (Fig. 9): it
// returns the subgraph induced by the given fraction of vertices chosen
// by the provided picker (a permutation prefix computed by the caller).
func RandomVertexSubset(g *Graph, keep []int32) *Subgraph {
	return Induce(g, keep)
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
