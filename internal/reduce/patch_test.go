package reduce_test

// External test package so the validity oracle (internal/enum) can be
// used without an import cycle.

import (
	"slices"
	"testing"

	"fairclique/internal/enum"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
	"fairclique/internal/reduce"
	"fairclique/internal/rng"
)

func randomAttributed(seed uint64, n int, p float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// randomDelta draws up to three insertions and up to two deletions;
// with deleteOnly it draws only deletions (at least one when g has an
// edge).
func randomDelta(r *rng.RNG, g *graph.Graph, deleteOnly bool) *graph.Delta {
	d := &graph.Delta{}
	n := int(g.N())
	for i := 0; !deleteOnly && i < 1+r.Intn(3); i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		}
	}
	dels := r.Intn(3)
	if deleteOnly {
		dels++
	}
	for i := 0; i < dels && g.M() > 0; i++ {
		u, v := g.Edge(int32(r.Intn(int(g.M()))))
		ok := true
		for _, e := range d.AddEdges {
			if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
				ok = false
			}
		}
		if ok {
			d.DelEdges = append(d.DelEdges, [2]int32{u, v})
		}
	}
	return d
}

// Every patched subgraph must stay a *valid* reduction of the mutated
// graph: its maximum (k, δ)-fair clique equals the true maximum,
// checked against the independent Bron–Kerbosch baseline, over two
// chained deltas per trial. Every third trial is delete-only, the
// re-peel path. Clean components must carry over edge-exactly, every
// reduction built must keep the fairness floor, and the input subgraph
// must stay a valid reduction of the old graph (in-flight searches keep
// reading it).
func TestPatchPreservesOptima(t *testing.T) {
	r := rng.New(515)
	for trial := 0; trial < 30; trial++ {
		g := randomAttributed(uint64(trial)+100, 16+trial%5, 0.35)
		var subs [4]*graph.Subgraph
		for k := int32(1); k <= 3; k++ {
			subs[k], _ = reduce.Pipeline(g, k)
			checkFloor(t, subs[k], k)
		}
		for round := 0; round < 2; round++ {
			d := randomDelta(r, g, trial%3 == 2)
			newG, info, err := graph.ApplyDelta(g, d)
			if err != nil {
				t.Fatal(err)
			}
			region := insertionRegion(newG, info)
			for k := int32(1); k <= 3; k++ {
				old := subs[k]
				cur := reduce.Patch(old, newG, info, region, k, 1)
				checkFloor(t, cur, k)
				if !slices.IsSorted(cur.ToParent) {
					t.Fatalf("trial %d round %d k=%d: patched ToParent not ascending", trial, round, k)
				}
				checkCleanCarried(t, old, cur, info)
				for delta := 0; delta <= 2; delta++ {
					want := len(enum.MaxFairClique(newG, int(k), delta))
					if got := len(enum.MaxFairClique(cur.G, int(k), delta)); got != want {
						t.Fatalf("trial %d round %d k=%d δ=%d: patched optimum %d, true optimum %d (delta %+v)",
							trial, round, k, delta, got, want, d)
					}
				}
				want := len(enum.MaxFairClique(g, int(k), 1))
				if got := len(enum.MaxFairClique(old.G, int(k), 1)); got != want {
					t.Fatalf("trial %d round %d k=%d: input subgraph corrupted by Patch: %d vs %d", trial, round, k, got, want)
				}
				subs[k] = cur
			}
			g = newG
		}
	}
}

// checkFloor fails unless every vertex of the reduction sub at k keeps
// the fairness floor 2k−1 of neighbours: repeel relies on it to peel
// only from the deleted edges' endpoints.
func checkFloor(t *testing.T, sub *graph.Subgraph, k int32) {
	t.Helper()
	for v := int32(0); v < sub.G.N(); v++ {
		if d := sub.G.Deg(v); d < kcore.FairnessFloor(k) {
			t.Fatalf("k=%d: vertex %d has %d neighbours in the reduction, below the floor %d", k, sub.ToParent[v], d, kcore.FairnessFloor(k))
		}
	}
}

// insertionRegion is the region a session hands Patch: the inserted
// edges' endpoints and common neighbours, sorted and deduplicated.
func insertionRegion(g *graph.Graph, info *graph.ApplyInfo) []int32 {
	var region []int32
	for _, e := range info.Inserted {
		region = append(region, e[0], e[1])
		g.CommonNeighbors(e[0], e[1], func(w int32) { region = append(region, w) })
	}
	slices.Sort(region)
	return slices.Compact(region)
}

// checkCleanCarried fails unless every component of old free of delta
// endpoints reappears in cur with exactly its edges: the patch may not
// restore edges the pipeline peeled, nor lose any.
func checkCleanCarried(t *testing.T, old, cur *graph.Subgraph, info *graph.ApplyInfo) {
	t.Helper()
	curID := make(map[int32]int32, cur.G.N())
	for v := int32(0); v < cur.G.N(); v++ {
		curID[cur.ToParent[v]] = v
	}
	for _, comp := range graph.ConnectedComponents(old.G) {
		if slices.ContainsFunc(comp, func(v int32) bool { return info.Touches(old.ToParent[v]) }) {
			continue
		}
		for i := 0; i < len(comp); i++ {
			for j := i + 1; j < len(comp); j++ {
				ou, ov := old.ToParent[comp[i]], old.ToParent[comp[j]]
				nu, okU := curID[ou]
				nv, okV := curID[ov]
				if !okU || !okV {
					t.Fatalf("clean survivors %d/%d missing after patch", ou, ov)
				}
				if old.G.HasEdge(comp[i], comp[j]) != cur.G.HasEdge(nu, nv) {
					t.Fatalf("clean-component edge (%d,%d) changed across the patch", ou, ov)
				}
			}
		}
	}
}

// Patch returns its input subgraph itself — the pointer the session
// keys its carried-over search machinery on — for a delta far from it,
// whether the delta deletes or inserts, and a new subgraph once an
// insertion makes a clique the reduction keeps.
func TestPatchReusesUntouchedSubgraph(t *testing.T) {
	// A balanced K6 nucleus (vertices 0-5) plus a pendant path 6-7-8-9:
	// the path is peeled by the k=2 reduction.
	b := graph.NewBuilder(10)
	for v := int32(0); v < 10; v++ {
		b.SetAttr(v, graph.Attr(v%2))
	}
	for u := int32(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(7, 8)
	b.AddEdge(8, 9)
	g := b.Build()

	sub, _ := reduce.Pipeline(g, 2)
	if sub.G.N() != 6 {
		t.Fatalf("k=2 reduction kept %d vertices, want the K6 nucleus", sub.G.N())
	}
	patch := func(d *graph.Delta) *graph.Subgraph {
		t.Helper()
		newG, info, err := graph.ApplyDelta(g, d)
		if err != nil {
			t.Fatal(err)
		}
		return reduce.Patch(sub, newG, info, insertionRegion(newG, info), 2, 1)
	}
	if patch(&graph.Delta{DelEdges: [][2]int32{{7, 8}}}) != sub {
		t.Fatal("far deletion rebuilt the subgraph")
	}
	// A chord 6-8 closes the triangle 6-7-8: a new clique, but too
	// small to be (2, δ)-fair, so the region re-reduction keeps nothing.
	if patch(&graph.Delta{AddEdges: [][2]int32{{6, 8}}}) != sub {
		t.Fatal("far insertion rebuilt the subgraph")
	}
	// Closing the path 6-7-8-9 into a K4 with balanced attributes makes
	// a (2, 0)-fair clique far from the nucleus: it must be added.
	got := patch(&graph.Delta{AddEdges: [][2]int32{{6, 8}, {6, 9}, {7, 9}}})
	if got == sub || got.G.N() != 10 || got.G.M() != 21 {
		t.Fatalf("K4 insertion gave n=%d m=%d (reused %v), want the K6 and the K4", got.G.N(), got.G.M(), got == sub)
	}
	// Deleting a nucleus edge re-peels the nucleus: at k=2 (floor 3)
	// the K6 minus one edge keeps every vertex.
	got = patch(&graph.Delta{DelEdges: [][2]int32{{0, 1}}})
	if got == sub || got.G.N() != 6 || got.G.M() != 14 {
		t.Fatalf("nucleus deletion gave n=%d m=%d (reused %v), want the K6 minus one edge", got.G.N(), got.G.M(), got == sub)
	}
	// Deleting an edge between a nucleus vertex and the path leaves the
	// subgraph's edges intact: reused, though an endpoint lies in it.
	if patch(&graph.Delta{DelEdges: [][2]int32{{5, 6}}}) != sub {
		t.Fatal("deleting an edge outside the subgraph rebuilt it")
	}
}
