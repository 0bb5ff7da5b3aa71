// Package graph implements the attributed graph substrate used by every
// algorithm in this repository: an immutable CSR (compressed sparse row)
// representation of an undirected simple graph whose vertices carry one
// of two attributes, plus builders, text IO, induced subgraphs, and
// connected components.
//
// Vertices are dense int32 identifiers in [0, N()). Edges are dense
// int32 identifiers in [0, M()); each undirected edge appears once in
// the edge list (with u < v) and twice in the adjacency structure.
// Adjacency lists are sorted by neighbour id, so adjacency tests are
// O(log deg) and common-neighbour enumeration is a linear merge.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Attr is a binary vertex attribute. The paper writes the attribute set
// as A = {a, b}; we use AttrA and AttrB.
type Attr uint8

const (
	// AttrA is the first attribute value ("a" in the paper).
	AttrA Attr = 0
	// AttrB is the second attribute value ("b" in the paper).
	AttrB Attr = 1
)

// Other returns the opposite attribute.
func (a Attr) Other() Attr { return a ^ 1 }

// String returns "a" or "b".
func (a Attr) String() string {
	if a == AttrA {
		return "a"
	}
	return "b"
}

// ParseAttr converts a textual attribute ("a"/"b"/"0"/"1") to an Attr.
func ParseAttr(s string) (Attr, error) {
	switch s {
	case "a", "A", "0":
		return AttrA, nil
	case "b", "B", "1":
		return AttrB, nil
	}
	return 0, fmt.Errorf("graph: invalid attribute %q (want a, b, 0 or 1)", s)
}

// Graph is an immutable undirected attributed graph. Construct one with
// a Builder, the generators in internal/gen, or the readers in io.go.
type Graph struct {
	offsets []int32    // len n+1; adjacency of v is nbrs[offsets[v]:offsets[v+1]]
	nbrs    []int32    // neighbour ids, sorted within each vertex
	eids    []int32    // edge id parallel to nbrs
	attrs   []Attr     // len n
	edges   [][2]int32 // canonical edge list, edges[e] = {u, v} with u < v
}

// N returns the number of vertices.
func (g *Graph) N() int32 { return int32(len(g.attrs)) }

// M returns the number of undirected edges.
func (g *Graph) M() int32 { return int32(len(g.edges)) }

// Deg returns the degree of v.
func (g *Graph) Deg(v int32) int32 { return g.offsets[v+1] - g.offsets[v] }

// Attr returns the attribute of v.
func (g *Graph) Attr(v int32) Attr { return g.attrs[v] }

// Attrs returns the underlying attribute slice. Callers must not modify it.
func (g *Graph) Attrs() []Attr { return g.attrs }

// Neighbors returns the sorted adjacency list of v. Callers must not
// modify the returned slice.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.nbrs[g.offsets[v]:g.offsets[v+1]]
}

// IncidentEdges returns the edge ids parallel to Neighbors(v).
func (g *Graph) IncidentEdges(v int32) []int32 {
	return g.eids[g.offsets[v]:g.offsets[v+1]]
}

// Edge returns the canonical endpoints (u < v) of edge e.
func (g *Graph) Edge(e int32) (int32, int32) {
	return g.edges[e][0], g.edges[e][1]
}

// HasEdge reports whether u and v are adjacent. O(log min(deg(u), deg(v))).
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	if g.Deg(u) > g.Deg(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// EdgeID returns the id of edge (u, v) and whether it exists.
func (g *Graph) EdgeID(u, v int32) (int32, bool) {
	if u == v {
		return 0, false
	}
	if g.Deg(u) > g.Deg(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return g.IncidentEdges(u)[i], true
	}
	return 0, false
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int32 {
	var d int32
	for v := int32(0); v < g.N(); v++ {
		if dv := g.Deg(v); dv > d {
			d = dv
		}
	}
	return d
}

// AttrCount returns the number of vertices with each attribute.
func (g *Graph) AttrCount() (na, nb int32) {
	for _, a := range g.attrs {
		if a == AttrA {
			na++
		} else {
			nb++
		}
	}
	return
}

// CommonNeighbors calls fn for every common neighbour w of u and v, in
// increasing order of w (IntersectSorted of the two adjacency lists).
func (g *Graph) CommonNeighbors(u, v int32, fn func(w int32)) {
	IntersectSorted(g.Neighbors(u), g.Neighbors(v), fn)
}

// IntersectSorted calls fn for every value that both ascending lists
// hold, in increasing order; neither list may repeat a value. It is a
// linear merge unless one list is more than eight times longer than the
// other; then each value of the shorter list is binary-searched in the
// rest of the longer one, for O(short·log long) instead of O(long), so
// a hub's adjacency list does not cost its whole length per call.
func IntersectSorted(a, b []int32, fn func(w int32)) {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > 8*len(a) {
		lo := 0
		for _, x := range a {
			j, ok := slices.BinarySearch(b[lo:], x)
			if lo += j; ok {
				fn(x)
				lo++
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// CountCommonNeighbors returns |N(u) ∩ N(v)|.
func (g *Graph) CountCommonNeighbors(u, v int32) int {
	n := 0
	g.CommonNeighbors(u, v, func(int32) { n++ })
	return n
}

// IsClique reports whether every pair of the given vertices is adjacent.
// Intended for validation and tests; O(|S|^2 log d).
func (g *Graph) IsClique(s []int32) bool {
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if !g.HasEdge(s[i], s[j]) {
				return false
			}
		}
	}
	return true
}

// CountAttrs returns how many of the given vertices carry each attribute.
func (g *Graph) CountAttrs(s []int32) (na, nb int) {
	for _, v := range s {
		if g.attrs[v] == AttrA {
			na++
		} else {
			nb++
		}
	}
	return
}

// IsFairClique reports whether s is a clique satisfying the relative
// fairness condition for (k, δ): at least k vertices of each attribute
// and an attribute-count difference of at most δ.
func (g *Graph) IsFairClique(s []int32, k, delta int) bool {
	na, nb := g.CountAttrs(s)
	if na < k || nb < k {
		return false
	}
	if d := na - nb; d > delta || -d > delta {
		return false
	}
	return g.IsClique(s)
}

// Clone returns a deep copy of g. The copy shares no state with g, so
// it is safe to hand to code that builds derived structures in place.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		offsets: append([]int32(nil), g.offsets...),
		nbrs:    append([]int32(nil), g.nbrs...),
		eids:    append([]int32(nil), g.eids...),
		attrs:   append([]Attr(nil), g.attrs...),
		edges:   append([][2]int32(nil), g.edges...),
	}
	return c
}

// Validate checks internal invariants (sorted adjacency, symmetric
// edges, consistent edge ids). It is used by tests and the IO layer.
func (g *Graph) Validate() error {
	n := g.N()
	if int32(len(g.offsets)) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), n+1)
	}
	if g.offsets[n] != int32(len(g.nbrs)) || len(g.nbrs) != len(g.eids) {
		return fmt.Errorf("graph: adjacency arrays inconsistent")
	}
	if int32(len(g.nbrs)) != 2*g.M() {
		return fmt.Errorf("graph: %d adjacency entries for %d edges", len(g.nbrs), g.M())
	}
	for v := int32(0); v < n; v++ {
		adj := g.Neighbors(v)
		ids := g.IncidentEdges(v)
		for i, w := range adj {
			if w < 0 || w >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, w)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			e := ids[i]
			x, y := g.Edge(e)
			if !(x == v && y == w) && !(x == w && y == v) {
				return fmt.Errorf("graph: edge id %d of (%d,%d) maps to (%d,%d)", e, v, w, x, y)
			}
		}
	}
	for e, uv := range g.edges {
		if uv[0] >= uv[1] {
			return fmt.Errorf("graph: edge %d = (%d,%d) not canonical", e, uv[0], uv[1])
		}
		if !g.HasEdge(uv[0], uv[1]) {
			return fmt.Errorf("graph: edge %d = (%d,%d) missing from adjacency", e, uv[0], uv[1])
		}
	}
	return nil
}
