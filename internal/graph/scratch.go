package graph

import "slices"

// CSRScratch builds vertex-induced adjacency views of a parent graph
// into reusable buffers, so callers that induce subgraphs in a loop
// (the branch-and-bound bound checks) perform no steady-state heap
// allocations. Unlike Induce it does not construct a *Graph — it
// exposes the raw view CSR, which is all the bound algorithms need.
//
// A view is valid until the next InduceView call on the same scratch.
type CSRScratch struct {
	idx   []int32 // parent id -> view id, valid when stamp[parent] == epoch
	stamp []int32
	epoch int32

	// Verts maps view id -> parent id; its length is the view size.
	Verts []int32
	// Offsets has len(Verts)+1 entries; the view adjacency of i is
	// Nbrs[Offsets[i]:Offsets[i+1]]. Within a row, neighbours are
	// ordered by parent id (not by view id).
	Offsets []int32
	Nbrs    []int32
}

// InduceView builds the view induced by the concatenation of the given
// vertex sets, assigning dense view ids in concatenation order. The
// sets must be disjoint subsets of g's vertices.
func (s *CSRScratch) InduceView(g *Graph, sets ...[]int32) {
	if int32(len(s.stamp)) < g.N() {
		s.idx = make([]int32, g.N())
		s.stamp = make([]int32, g.N())
		s.epoch = 0
	}
	if s.epoch == 1<<31-1 {
		// Epoch wrap: clear the stamps so stale entries can never
		// collide with a reused epoch value (once per 2^31 views).
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	s.Verts = s.Verts[:0]
	for _, set := range sets {
		for _, v := range set {
			if s.stamp[v] == s.epoch {
				panic("graph: InduceView with duplicate vertex")
			}
			s.stamp[v] = s.epoch
			s.idx[v] = int32(len(s.Verts))
			s.Verts = append(s.Verts, v)
		}
	}
	// One pass over the parent adjacency: each parent row is copied
	// into the view row as view ids, and the write position advances
	// only past members of the view. The copy is branch-free (an
	// outsider's slot is simply overwritten by the next neighbour), so
	// a view holding about half of a dense row costs no mispredicted
	// branches.
	s.Offsets = append(s.Offsets[:0], 0)
	pos := 0
	for _, v := range s.Verts {
		nbrs := g.Neighbors(v)
		s.Nbrs = slices.Grow(s.Nbrs[:pos], len(nbrs))
		row := s.Nbrs[pos : pos+len(nbrs)]
		k := 0
		for _, w := range nbrs {
			row[k] = s.idx[w]
			if s.stamp[w] == s.epoch {
				k++
			}
		}
		pos += k
		s.Offsets = append(s.Offsets, int32(pos))
	}
	s.Nbrs = s.Nbrs[:pos]
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

// N returns the view size.
func (s *CSRScratch) N() int32 { return int32(len(s.Verts)) }

// Deg returns the view degree of view vertex i.
func (s *CSRScratch) Deg(i int32) int32 { return s.Offsets[i+1] - s.Offsets[i] }

// Row returns the view adjacency of view vertex i (view ids).
func (s *CSRScratch) Row(i int32) []int32 {
	return s.Nbrs[s.Offsets[i]:s.Offsets[i+1]]
}
