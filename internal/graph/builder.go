package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Builder accumulates vertices and edges and produces an immutable
// Graph. Duplicate edges and self-loops are silently dropped, so
// generators can add edges without bookkeeping.
type Builder struct {
	attrs []Attr
	keys  []uint64 // canonical edges packed as uint64(u)<<32 | v, u < v
}

// NewBuilder returns a builder pre-sized for n vertices, all AttrA.
func NewBuilder(n int) *Builder {
	return &Builder{attrs: make([]Attr, n)}
}

// N returns the current number of vertices.
func (b *Builder) N() int32 { return int32(len(b.attrs)) }

// AddVertex appends a vertex with the given attribute and returns its id.
func (b *Builder) AddVertex(a Attr) int32 {
	b.attrs = append(b.attrs, a)
	return int32(len(b.attrs) - 1)
}

// SetAttr sets the attribute of an existing vertex.
func (b *Builder) SetAttr(v int32, a Attr) { b.attrs[v] = a }

// AddEdge records an undirected edge. Self-loops are ignored; duplicate
// edges are removed when Build runs. Panics on out-of-range endpoints.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	n := b.N()
	if u < 0 || v < 0 || u >= n || v >= n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range n=%d", u, v, n))
	}
	if u > v {
		u, v = v, u
	}
	b.keys = append(b.keys, uint64(u)<<32|uint64(v))
}

// Build produces the immutable Graph. The builder can be reused after
// Build (its state is unchanged).
func (b *Builder) Build() *Graph {
	// Packed keys order exactly like (u, v) pairs, so one integer sort
	// and an adjacent-duplicate sweep canonicalize the edge list.
	keys := slices.Clone(b.keys)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	edges := make([][2]int32, len(keys))
	for i, k := range keys {
		edges[i] = [2]int32{int32(k >> 32), int32(uint32(k))}
	}
	return fromSortedEdges(slices.Clone(b.attrs), edges)
}

// splitPlacementEdges is the edge count from which fromSortedEdges
// places the two halves of its edge list on two goroutines. Below it a
// second goroutine costs more than it saves. It is a var only so tests
// can send small graphs through the split.
var splitPlacementEdges = 1 << 16

// fromSortedEdges assembles the CSR for an already canonical (u < v),
// sorted, deduplicated edge list. It takes ownership of both slices.
// Every CSR in this package is built this way, so a graph's layout
// depends only on its edge set.
//
// Placing the edges in (u, v) order sorts every adjacency list without
// a per-row sort: vertex x first receives its smaller neighbours, from
// the edges (u, x) in increasing u, then its larger neighbours, from
// the edges (x, v) in increasing v. Every (u, x) precedes every (x, v)
// because u < x, so the two runs never interleave. From
// splitPlacementEdges edges on, placeHalves places the list instead.
func fromSortedEdges(attrs []Attr, edges [][2]int32) *Graph {
	if len(edges) >= splitPlacementEdges {
		return placeHalves(attrs, edges)
	}
	n := len(attrs)
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e[0]+1]++
		offsets[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	nbrs := make([]int32, offsets[n])
	eids := make([]int32, offsets[n])
	fill := slices.Clone(offsets[:n])
	for e, uv := range edges {
		u, v := uv[0], uv[1]
		nbrs[fill[u]], eids[fill[u]] = v, int32(e)
		fill[u]++
		nbrs[fill[v]], eids[fill[v]] = u, int32(e)
		fill[v]++
	}
	return &Graph{
		offsets: offsets,
		nbrs:    nbrs,
		eids:    eids,
		attrs:   attrs,
		edges:   edges,
	}
}

// placeHalves is fromSortedEdges for a large edge list: it places the
// two halves of the list at once, a goroutine counting and then placing
// the first half while the caller's goroutine does the second. Row x
// takes the first half's entries from offsets[x] and the second half's
// from offsets[x] plus the first half's count for x, so every row
// still receives its entries in edge order and the CSR is the same
// byte for byte. Like fromSortedEdges it allocates one cursor per
// vertex beside the arrays the Graph keeps.
func placeHalves(attrs []Attr, edges [][2]int32) *Graph {
	n, h := len(attrs), len(edges)/2
	offsets := make([]int32, n+1)
	// first holds the first half's row counts, then the second half's
	// cursors; the first half's cursors run in offsets.
	first := make([]int32, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		countRows(first, edges[:h])
	}()
	countRows(offsets[1:], edges[h:])
	wg.Wait()
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v] + first[v]
		first[v] += offsets[v]
	}
	nbrs := make([]int32, offsets[n])
	eids := make([]int32, offsets[n])
	wg.Add(1)
	go func() {
		defer wg.Done()
		placeRows(nbrs, eids, offsets[:n], edges[:h], 0)
	}()
	placeRows(nbrs, eids, first, edges[h:], int32(h))
	wg.Wait()
	// The first half moved its cursors in offsets; every second-half
	// cursor stopped where the next row starts, so first restores
	// them.
	offsets[0] = 0
	copy(offsets[1:], first)
	return &Graph{
		offsets: offsets,
		nbrs:    nbrs,
		eids:    eids,
		attrs:   attrs,
		edges:   edges,
	}
}

// countRows adds each edge's two half-edges to the counts of its
// endpoints' rows.
func countRows(counts []int32, edges [][2]int32) {
	for _, e := range edges {
		counts[e[0]]++
		counts[e[1]]++
	}
}

// placeRows places each edge, whose id is base plus its index, into
// the rows of both endpoints at their cursors, advancing them.
func placeRows(nbrs, eids, fill []int32, edges [][2]int32, base int32) {
	for i, uv := range edges {
		u, v, e := uv[0], uv[1], base+int32(i)
		nbrs[fill[u]], eids[fill[u]] = v, e
		fill[u]++
		nbrs[fill[v]], eids[fill[v]] = u, e
		fill[v]++
	}
}

// FromEdges is a convenience constructor: n vertices with the given
// attributes (length n) and the given undirected edges.
func FromEdges(attrs []Attr, edges [][2]int32) *Graph {
	b := NewBuilder(len(attrs))
	copy(b.attrs, attrs)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
