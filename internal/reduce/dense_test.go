package reduce

import (
	"testing"

	"fairclique/internal/color"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
	"fairclique/internal/rng"
)

// setDenseCutoff sets denseMaxVertices for the rest of the test.
func setDenseCutoff(tb testing.TB, n int32) {
	old := denseMaxVertices
	denseMaxVertices = n
	tb.Cleanup(func() { denseMaxVertices = old })
}

// bothPaths runs f on the default dispatch, which puts these small
// test graphs on dense rows, and again with every graph forced onto
// the merge path.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("dense", f)
	t.Run("merge", func(t *testing.T) {
		setDenseCutoff(t, 0)
		f(t)
	})
}

// randomColoring gives every vertex one of num colors at random. It is
// not a proper coloring; both kernels count distinct colors of any
// assignment, and num > 64 spreads an attribute's color set over
// several words.
func randomColoring(seed uint64, n, num int32) *color.Coloring {
	r := rng.New(seed)
	c := &color.Coloring{Colors: make([]int32, n), Num: num}
	for v := range c.Colors {
		c.Colors[v] = int32(r.Intn(int(num)))
	}
	return c
}

// The dense-row kernel must peel exactly the edges of the merge kernel
// on every graph, coloring and k, for both reductions. Rows span one
// to three words and color sets one or two words per attribute.
func TestDenseMatchesMerge(t *testing.T) {
	setDenseCutoff(t, 0) // ColorfulSup and EnColorfulSup take the merge path
	partial := 0
	for seed := uint64(0); seed < 60; seed++ {
		p := 0.1 + 0.1*float64(seed%8) // 0.1 .. 0.8
		n := int(16 / p)               // mean degree ~16: 140 (capped) .. 20 vertices
		if n > 140 {
			n = 140
		}
		g := random(seed, n, p)
		cols := []*color.Coloring{color.Greedy(g), randomColoring(seed, g.N(), 1+int32(seed%3)*40)}
		for ci, col := range cols {
			for k := int32(1); k <= 6; k++ {
				for _, enhanced := range []bool{false, true} {
					want := ColorfulSup(g, col, k)
					if enhanced {
						want = EnColorfulSup(g, col, k)
					}
					got := supDense(g, col, k, enhanced)
					for e := range want.EdgeAlive {
						if got.EdgeAlive[e] != want.EdgeAlive[e] {
							t.Fatalf("seed %d coloring %d k=%d enhanced=%v: edge %d dense %v merge %v",
								seed, ci, k, enhanced, e, got.EdgeAlive[e], want.EdgeAlive[e])
						}
					}
					if got.EdgesLeft > 0 && got.EdgesLeft < g.M() {
						partial++
					}
				}
			}
		}
	}
	// Graphs that keep or lose every edge say little about the peel.
	if partial < 300 {
		t.Fatalf("only %d partial peels", partial)
	}
}

// ring is a small-world ring lattice (degree 8, a tenth of the edges
// rewired) with random attributes: sparse, one component, and rich in
// triangles, so the support stages peel part of it.
func ring(seed uint64, n int) *graph.Graph {
	r := rng.New(seed)
	ws := gen.WattsStrogatz(seed, n, 4, 0.1)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for e := int32(0); e < ws.M(); e++ {
		b.AddEdge(ws.Edge(e))
	}
	return b.Build()
}

// straddle is a disjoint union of a 4,500-vertex ring, which stays
// above the dense cutoff through the prune and EnColorfulCore at
// k <= 2, and three 60-vertex random blobs below it.
func straddle(seed uint64) *graph.Graph {
	big, blobs := ring(seed, 4500), multiComponent(seed, 3, 60, 0.4)
	b := graph.NewBuilder(int(big.N() + blobs.N()))
	base := int32(0)
	for _, part := range []*graph.Graph{big, blobs} {
		for v := int32(0); v < part.N(); v++ {
			b.SetAttr(base+v, part.Attr(v))
		}
		for e := int32(0); e < part.M(); e++ {
			u, v := part.Edge(e)
			b.AddEdge(base+u, base+v)
		}
		base += part.N()
	}
	return b.Build()
}

// Forcing every component onto the merge path must not change one bit
// of the pipeline's snapshot or stage sizes, on a graph whose
// components reach the support stages on both sides of the cutoff.
func TestPipelineDenseCutoffBitIdentical(t *testing.T) {
	g := straddle(3)
	ks := []int32{1, 2}
	subs := make([]*graph.Subgraph, len(ks))
	stats := make([][]StageStats, len(ks))
	for i, k := range ks {
		// The sizes ColorfulSup sees: the prune's components after
		// EnColorfulCore.
		alive, _ := kcore.FairCliquePrune(g, k)
		pre := graph.InduceAlive(g, alive, nil)
		var above, below int
		for _, c := range graph.ConnectedComponents(pre.G) {
			cs := graph.Induce(pre.G, c)
			switch n := EnColorfulCore(cs.G, color.Greedy(cs.G), k-1).VerticesLeft; {
			case n > denseMaxVertices:
				above++
			case n > 0:
				below++
			}
		}
		if above == 0 || below == 0 {
			t.Fatalf("k=%d: %d components above the cutoff, %d below; want both", k, above, below)
		}
		subs[i], stats[i] = PipelineN(g, k, 1)
		if st := stats[i]; st[3].Edges == 0 || st[3].Edges >= st[1].Edges {
			t.Fatalf("k=%d: support stages kept %d of %d edges; want a partial peel", k, st[3].Edges, st[1].Edges)
		}
	}
	setDenseCutoff(t, 0)
	for i, k := range ks {
		got, gst := PipelineN(g, k, 1)
		for s := range gst {
			if gst[s] != stats[i][s] {
				t.Fatalf("k=%d: stage %d stats %+v (default) vs %+v (merge)", k, s, stats[i][s], gst[s])
			}
		}
		identicalSub(t, "cutoff", subs[i], got)
	}
}

// benchSup times one support reduction on both sides of the dense
// cutoff: a sparse random graph and the search-cold nucleus (the
// FairCliquePrune survivor of a 230-vertex bigcomp nucleus) on dense
// rows, the nucleus again forced onto the merge path, and sparse rings
// just below (dense) and above (merge) the cutoff.
func benchSup(b *testing.B, sup func(*graph.Graph, *color.Coloring, int32) *Result) {
	const k = 3
	big := gen.BigComponent(1, 230, 0.5, graph.ChunkBits+1024)
	alive, _ := kcore.FairCliquePrune(big, k)
	nucleus := graph.InduceAlive(big, alive, nil).G
	cases := []struct {
		name   string
		g      *graph.Graph
		cutoff int32
	}{
		{"dense/random400", random(1, 400, 0.1), graph.ChunkBits},
		{"dense/searchcold", nucleus, graph.ChunkBits},
		{"merge/searchcold", nucleus, 0},
		{"dense/ring4000", ring(1, 4000), graph.ChunkBits},
		{"merge/ring5000", ring(1, 5000), graph.ChunkBits},
	}
	for _, bc := range cases {
		col := color.Greedy(bc.g)
		b.Run(bc.name, func(b *testing.B) {
			setDenseCutoff(b, bc.cutoff)
			b.ReportAllocs()
			for b.Loop() {
				sup(bc.g, col, k)
			}
		})
	}
}

func BenchmarkColorfulSup(b *testing.B) { benchSup(b, ColorfulSup) }

func BenchmarkEnColorfulSup(b *testing.B) { benchSup(b, EnColorfulSup) }
