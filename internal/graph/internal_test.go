package graph

import (
	"testing"

	"fairclique/internal/rng"
)

func TestAddVertexGrowsBuilder(t *testing.T) {
	b := NewBuilder(1)
	v := b.AddVertex(AttrB)
	if v != 1 || b.N() != 2 {
		t.Fatalf("AddVertex returned %d, n=%d", v, b.N())
	}
	b.AddEdge(0, v)
	g := b.Build()
	if g.Attr(1) != AttrB || g.M() != 1 {
		t.Fatal("vertex attributes or edges lost")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges([]Attr{AttrA, AttrB, AttrA}, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Attr(1) != AttrB {
		t.Fatal("attrs lost")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAttrsAccessor(t *testing.T) {
	g := FromEdges([]Attr{AttrA, AttrB}, [][2]int32{{0, 1}})
	attrs := g.Attrs()
	if len(attrs) != 2 || attrs[0] != AttrA || attrs[1] != AttrB {
		t.Fatalf("Attrs() = %v", attrs)
	}
}

// Validate must catch structural corruption. Tests are in-package, so
// they can break invariants directly.
func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph { return FromEdges([]Attr{0, 0, 0}, [][2]int32{{0, 1}, {1, 2}}) }

	g := fresh()
	g.offsets = g.offsets[:len(g.offsets)-1]
	if g.Validate() == nil {
		t.Error("truncated offsets accepted")
	}

	g = fresh()
	g.nbrs = g.nbrs[:len(g.nbrs)-1]
	if g.Validate() == nil {
		t.Error("truncated adjacency accepted")
	}

	g = fresh()
	g.edges = append(g.edges, [2]int32{0, 2})
	if g.Validate() == nil {
		t.Error("phantom edge accepted")
	}

	g = fresh()
	g.nbrs[0] = 99
	if g.Validate() == nil {
		t.Error("out-of-range neighbour accepted")
	}

	g = fresh()
	g.nbrs[0] = 0 // self loop entry for vertex 0
	if g.Validate() == nil {
		t.Error("self-loop accepted")
	}

	g = fresh()
	// Vertex 1 has two neighbours (0, 2); swap to break sortedness.
	lo := g.offsets[1]
	g.nbrs[lo], g.nbrs[lo+1] = g.nbrs[lo+1], g.nbrs[lo]
	g.eids[lo], g.eids[lo+1] = g.eids[lo+1], g.eids[lo]
	if g.Validate() == nil {
		t.Error("unsorted adjacency accepted")
	}

	g = fresh()
	g.eids[0] = 1 // wrong edge id for (0,1)
	if g.Validate() == nil {
		t.Error("wrong edge id accepted")
	}

	g = fresh()
	g.edges[0] = [2]int32{1, 0} // non-canonical
	if g.Validate() == nil {
		t.Error("non-canonical edge accepted")
	}
}

func TestWriteFileErrorPath(t *testing.T) {
	g := FromEdges([]Attr{0, 0}, [][2]int32{{0, 1}})
	if err := WriteFile("/nonexistent-dir/g.txt", g); err == nil {
		t.Fatal("writing to a bad path should fail")
	}
}

// TriangleCount's degree ordering on a graph large enough to leave
// the sort's insertion-sort cutoff, against a count over the edges.
func TestSortHelpersLarge(t *testing.T) {
	r := rng.New(123)
	b := NewBuilder(400)
	for i := 0; i < 3000; i++ {
		u, v := int32(r.Intn(400)), int32(r.Intn(400))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	var want int64
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		want += int64(g.CountCommonNeighbors(u, v))
	}
	if got := TriangleCount(g); 3*got != want {
		t.Fatalf("TriangleCount = %d; want %d", got, want/3)
	}
}

// The Fig. 9 vertex sweep induces a random permutation prefix, an
// unsorted vertex list, with Induce.
func TestRandomVertexSubset(t *testing.T) {
	g := FromEdges([]Attr{0, 1, 0, 1}, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	sub := Induce(g, []int32{2, 0, 1})
	if sub.G.N() != 3 || sub.G.M() != 2 {
		t.Fatalf("subset n=%d m=%d", sub.G.N(), sub.G.M())
	}
}

func TestConnectedComponentsLargeSort(t *testing.T) {
	// One big component whose member list is sorted from a shuffled
	// discovery order.
	n := 500
	b := NewBuilder(n)
	r := rng.New(7)
	perm := r.Perm(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(perm[i]), int32(perm[i+1]))
	}
	comps := ConnectedComponents(b.Build())
	if len(comps) != 1 || len(comps[0]) != n {
		t.Fatalf("components %d", len(comps))
	}
	for i := 1; i < n; i++ {
		if comps[0][i-1] >= comps[0][i] {
			t.Fatal("component members not sorted")
		}
	}
}
