package reduce

import (
	"slices"
	"testing"

	"fairclique/internal/color"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
	"fairclique/internal/rng"
)

// multiComponent builds a disjoint union of random blobs so the
// component fan-out actually has components to fan.
func multiComponent(seed uint64, blobs, blobN int, p float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(blobs * blobN)
	for v := 0; v < blobs*blobN; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for c := 0; c < blobs; c++ {
		base := c * blobN
		for u := 0; u < blobN; u++ {
			for v := u + 1; v < blobN; v++ {
				if r.Bool(p) {
					b.AddEdge(int32(base+u), int32(base+v))
				}
			}
		}
	}
	return b.Build()
}

// lopsided is multiComponent with every vertex of its even blobs given
// attribute a, so at every k those blobs fail the colour-class price
// test while the odd blobs may pass it.
func lopsided(seed uint64, blobs, blobN int, p float64) *graph.Graph {
	g := multiComponent(seed, blobs, blobN, p)
	attrs := slices.Clone(g.Attrs())
	for v := range attrs {
		if v/blobN%2 == 0 {
			attrs[v] = graph.AttrA
		}
	}
	edges := make([][2]int32, g.M())
	for e := range edges {
		edges[e][0], edges[e][1] = g.Edge(int32(e))
	}
	return graph.FromEdges(attrs, edges)
}

// identicalSub fails unless two reduction results are bit-identical:
// same subgraph structure, attributes and parent mapping.
func identicalSub(t *testing.T, label string, want, got *graph.Subgraph) {
	t.Helper()
	if want.G.N() != got.G.N() || want.G.M() != got.G.M() {
		t.Fatalf("%s: size mismatch: serial n=%d m=%d, parallel n=%d m=%d",
			label, want.G.N(), want.G.M(), got.G.N(), got.G.M())
	}
	for i := range want.ToParent {
		if want.ToParent[i] != got.ToParent[i] {
			t.Fatalf("%s: ToParent[%d] = %d vs %d", label, i, want.ToParent[i], got.ToParent[i])
		}
	}
	for v := int32(0); v < want.G.N(); v++ {
		if want.G.Attr(v) != got.G.Attr(v) {
			t.Fatalf("%s: attr mismatch at %d", label, v)
		}
	}
	for e := int32(0); e < want.G.M(); e++ {
		wu, wv := want.G.Edge(e)
		gu, gv := got.G.Edge(e)
		if wu != gu || wv != gv {
			t.Fatalf("%s: edge %d = (%d,%d) vs (%d,%d)", label, e, wu, wv, gu, gv)
		}
	}
}

// TestPipelineNBitIdentical fuzzes the component-parallel reducer
// against the serial path: every workers value must produce the same
// snapshot bit for bit, including stage statistics.
func TestPipelineNBitIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		multiComponent(1, 8, 14, 0.5),
		multiComponent(2, 16, 9, 0.6),
		multiComponent(3, 3, 30, 0.25),
		random(4, 60, 0.2), // likely one giant component
		plantClique(5, 50, 3),
		lopsided(6, 48, 10, 0.6), // enough sets that workers claim several at a time
		threeComponents(),
		graph.NewBuilder(0).Build(),
	}
	for gi, g := range graphs {
		for k := int32(1); k <= 4; k++ {
			serial, sst := PipelineN(g, k, 1)
			for _, w := range []int{2, 3, 8} {
				par, pst := PipelineN(g, k, w)
				if len(sst) != len(pst) {
					t.Fatalf("g%d k=%d w=%d: stage count %d vs %d", gi, k, w, len(sst), len(pst))
				}
				for i := range sst {
					if sst[i] != pst[i] {
						t.Fatalf("g%d k=%d w=%d: stage %d stats %+v vs %+v", gi, k, w, i, sst[i], pst[i])
					}
				}
				identicalSub(t, "pipeline", serial, par)
			}
		}
	}
}

// TestPatchWorkersBitIdentical checks the region re-reduction inside
// Patch is workers-invariant too.
func TestPatchWorkersBitIdentical(t *testing.T) {
	g := multiComponent(11, 6, 14, 0.55)
	d := &graph.Delta{
		AddEdges: [][2]int32{{0, 15}, {1, 29}},
		DelEdges: [][2]int32{{2, 3}},
	}
	newG, info, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	var region []int32
	for _, e := range info.Inserted {
		region = append(region, e[0], e[1])
		newG.CommonNeighbors(e[0], e[1], func(w int32) { region = append(region, w) })
	}
	slices.Sort(region)
	region = slices.Compact(region)
	for k := int32(1); k <= 3; k++ {
		sub, _ := Pipeline(g, k)
		identicalSub(t, "patched", Patch(sub, newG, info, region, k, 1), Patch(sub, newG, info, region, k, 4))
	}
}

// PipelineN on the BenchmarkPipelineN instance allocates at most
// pipelineNAllocs objects: the (2k−1)-core peel, one in-place colouring
// and class count per component, and CSRs only for the components that
// pass the colour-class price test (only the planted K20 does). The
// count is exact and independent of the host: 947 on this code, 3,325
// when every component got a CSR and a full stage run. A change that
// builds CSRs for priced-out components again exceeds the bound.
const pipelineNAllocs = 1041 // 947 + 10%

func TestPipelineNAllocs(t *testing.T) {
	g := gen.IngestGiant(1, 0.09)
	avg := testing.AllocsPerRun(3, func() { PipelineN(g, 8, 1) })
	if avg > pipelineNAllocs {
		t.Fatalf("PipelineN allocates %.0f objects; want at most %d", avg, pipelineNAllocs)
	}
}

// BenchmarkPipelineN reduces the BenchmarkLoadSNAP instance,
// gen.IngestGiant(1, 0.09), at the ingest-answer query's k = 8 on one
// worker: the (2k−1)-core peel, the one-pass component split and the
// colorful stages over every surviving component. Only the planted
// balanced K20 survives.
func BenchmarkPipelineN(b *testing.B) {
	g := gen.IngestGiant(1, 0.09)
	b.ReportAllocs()
	for b.Loop() {
		if sub, _ := PipelineN(g, 8, 1); sub.G.N() != 20 || sub.G.M() != 190 {
			b.Fatalf("reduced to n=%d m=%d; want the planted K20", sub.G.N(), sub.G.M())
		}
	}
}

// BenchmarkPipelineNSearchCold reduces the instances of perfbench's
// search-cold workload in its rotation: op j runs PipelineN on one
// worker over seed 1's instance (j/6) mod 6, gen.BigComponent(16+i,
// 230, 0.5, 5120), at the k of rotation cell j mod 6. Every stage keeps
// the whole 230-vertex nucleus (TestReductionSizesPinned).
func BenchmarkPipelineNSearchCold(b *testing.B) {
	ks := []int32{2, 2, 3, 2, 4, 2}
	gs := make([]*graph.Graph, 6)
	for i := range gs {
		gs[i] = gen.BigComponent(16+uint64(i), 230, 0.5, graph.ChunkBits+1024)
	}
	b.ReportAllocs()
	for j := 0; b.Loop(); j++ {
		if sub, _ := PipelineN(gs[j/len(ks)%len(gs)], ks[j%len(ks)], 1); sub.G.N() != 230 {
			b.Fatalf("reduced to n=%d; want the 230-vertex nucleus", sub.G.N())
		}
	}
}

// BenchmarkPipelineNHub reduces gen.HubFan(20000) at k = 2 on one
// worker: 60,001 vertices, every edge a triangle edge or a hub edge, so
// each support count intersects the hub's 60,000-entry adjacency list
// with a list of three. Every vertex survives.
func BenchmarkPipelineNHub(b *testing.B) {
	g := gen.HubFan(20000)
	b.ReportAllocs()
	for b.Loop() {
		if sub, _ := PipelineN(g, 2, 1); sub.G.N() != g.N() {
			b.Fatalf("reduced to n=%d; want all %d vertices", sub.G.N(), g.N())
		}
	}
}

// BenchmarkEnColorfulCore runs the first colorful stage, EnColorfulCore
// at k − 1 = 7, over each of the 601 components of gen.IngestGiant(1,
// 1.0)'s (2k−1)-core at k = 8, each induced and coloured greedily
// outside the timing. Only the planted K20 survives it. PipelineN no
// longer runs it on the other 600: their colour classes price them out
// first, so this times the stage on many mid-sized components, not a
// step of the ingest query.
func BenchmarkEnColorfulCore(b *testing.B) {
	const k = 8
	g := gen.IngestGiant(1, 1.0)
	alive, _ := kcore.FairCliquePrune(g, k)
	sets := graph.Components(g, alive)
	local := make([]int32, g.N())
	comps := make([]*graph.Graph, len(sets))
	cols := make([]*color.Coloring, len(sets))
	for i, vs := range sets {
		comps[i] = graph.InduceComponent(g, vs, alive, local).G
		cols[i] = color.Greedy(comps[i])
	}
	b.ReportAllocs()
	for b.Loop() {
		var kept int32
		for i, c := range comps {
			kept += EnColorfulCore(c, cols[i], k-1).VerticesLeft
		}
		if kept != 20 {
			b.Fatalf("EnColorfulCore kept %d vertices over %d components; want the planted K20", kept, len(comps))
		}
	}
}
