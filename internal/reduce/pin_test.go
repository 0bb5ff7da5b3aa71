package reduce

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"fairclique/internal/color"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
)

// subHash is an FNV-64a hash of a reduced subgraph: its ToParent map,
// attributes and edge list.
func subHash(s *graph.Subgraph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for v, p := range s.ToParent {
		put(p)
		put(int32(s.G.Attr(int32(v))))
	}
	for e := int32(0); e < s.G.M(); e++ {
		u, v := s.G.Edge(e)
		put(u)
		put(v)
	}
	return h.Sum64()
}

// maskHash is an FNV-64a hash of an edge mask.
func maskHash(alive []bool) uint64 {
	h := fnv.New64a()
	for _, ok := range alive {
		if ok {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// stageRow is one pipeline run: the (vertices, edges) after the prune
// and after each colorful stage, and the hash of the reduced subgraph.
type stageRow struct {
	sizes [4][2]int32
	hash  uint64
}

func checkStages(t *testing.T, label string, g *graph.Graph, k int32, want stageRow) {
	t.Helper()
	sub, st := PipelineN(g, k, 1)
	var got stageRow
	for i, s := range st {
		got.sizes[i] = [2]int32{s.Vertices, s.Edges}
	}
	got.hash = subHash(sub)
	if got != want {
		t.Errorf("%s k=%d: stages %v hash %#x, want %v hash %#x", label, k, got.sizes, got.hash, want.sizes, want.hash)
	}
}

// The reductions' outputs are deterministic, so their sizes are pinned
// exactly, with a hash of each reduced graph. A change that moves a
// number here changed what the reductions keep, not just their cost.
func TestReductionSizesPinned(t *testing.T) {
	t.Run("ingest", func(t *testing.T) {
		// The ingest-answer query: the planted balanced K20 is all the
		// colorful stages keep of the 601 prune components.
		g := gen.IngestGiant(1, 1.0)
		alive, _ := kcore.FairCliquePrune(g, 8)
		if n := len(graph.Components(g, alive)); n != 601 {
			t.Errorf("prune components %d, want 601", n)
		}
		checkStages(t, "IngestGiant(1, 1.0)", g, 8, stageRow{
			[4][2]int32{{28808, 372328}, {20, 190}, {20, 190}, {20, 190}}, 0x2406fe3c68b1867d})
	})
	t.Run("searchcold", func(t *testing.T) {
		// Seed 1's six search-cold instances,
		// gen.BigComponent(seed·16+i, 230, 0.5, 5120): the reductions keep
		// the whole 230-vertex nucleus at every cell's k.
		want := []struct {
			edges int32
			hash  uint64
		}{
			{13364, 0xb3e1ebf96fc272b6},
			{13238, 0x546e8627f6adcdda},
			{13262, 0xb09bf105a807dcda},
			{13198, 0xb371d779d30c84a3},
			{13040, 0xbd8ecd3858898abe},
			{13135, 0x829ccbd502c2bb13},
		}
		for i, w := range want {
			g := gen.BigComponent(16+uint64(i), 230, 0.5, graph.ChunkBits+1024)
			row := stageRow{[4][2]int32{{230, w.edges}, {230, w.edges}, {230, w.edges}, {230, w.edges}}, w.hash}
			for _, k := range []int32{2, 3, 4} {
				checkStages(t, "BigComponent", g, k, row)
			}
		}
	})
	t.Run("reduced", func(t *testing.T) {
		// The reduced graph alone, without the stage rows, on graphs of
		// many components and of one, at k = 1…8.
		type reduced struct {
			n, m int32
			hash uint64
		}
		const empty = 0xcbf29ce484222325 // FNV-64a of no input
		cases := []struct {
			name string
			g    *graph.Graph
			want [8]reduced // k = 1…8
		}{
			{"IngestGiant(1, 0.09)", gen.IngestGiant(1, 0.09), [8]reduced{
				{16112, 125812, 0xc9d22e40a8e336fc}, {3213, 36617, 0xb73b3d1a1d0d8fe8},
				{2683, 33213, 0xae47c6c660ad7460}, {865, 6789, 0x65955cc372e0db4c},
				{30, 235, 0x5ca5e6009422e23d}, {20, 190, 0x3d4e1161cbe62c5d},
				{20, 190, 0x3d4e1161cbe62c5d}, {20, 190, 0x3d4e1161cbe62c5d}}},
			{"BigComponent(16, 230, 0.5, 5120)", gen.BigComponent(16, 230, 0.5, graph.ChunkBits+1024), [8]reduced{
				{5350, 18485, 0x8a64173fc1f300e8}, {230, 13364, 0xb3e1ebf96fc272b6},
				{230, 13364, 0xb3e1ebf96fc272b6}, {230, 13364, 0xb3e1ebf96fc272b6},
				{230, 13364, 0xb3e1ebf96fc272b6}, {230, 13364, 0xb3e1ebf96fc272b6},
				{230, 13364, 0xb3e1ebf96fc272b6}, {230, 13364, 0xb3e1ebf96fc272b6}}},
			{"BA(3000, 12)", gen.AssignUniform(2, gen.BarabasiAlbert(2, 3000, 12), 0.5), [8]reduced{
				{3000, 23532, 0xaf1d53e3a5cd4d96}, {499, 2648, 0x6a4ee15d7ec481da},
				{65, 505, 0x99693612eec1eb5e}, {28, 241, 0x70639391e11a76aa},
				{18, 129, 0x7468f0173dd3e036}, {0, 0, empty}, {0, 0, empty}, {0, 0, empty}}},
			{"ER(2000, 24000)", gen.AssignUniform(3, gen.ErdosRenyi(3, 2000, 24000), 0.5), [8]reduced{
				{2000, 13659, 0x30527912c4188e5}, {4, 6, 0x54ecd1d333b48498},
				{0, 0, empty}, {0, 0, empty}, {0, 0, empty}, {0, 0, empty}, {0, 0, empty}, {0, 0, empty}}},
			// Every vertex has attribute a, so nothing survives at any k.
			{"TeamGraph(1, 5000, 300, 14)", gen.TeamGraph(1, 5000, 300, 14), [8]reduced{
				{0, 0, empty}, {0, 0, empty}, {0, 0, empty}, {0, 0, empty},
				{0, 0, empty}, {0, 0, empty}, {0, 0, empty}, {0, 0, empty}}},
		}
		for _, c := range cases {
			for i, want := range c.want {
				k := int32(i + 1)
				sub, _ := PipelineN(c.g, k, 1)
				if got := (reduced{sub.G.N(), sub.G.M(), subHash(sub)}); got != want {
					t.Errorf("%s k=%d: reduced to %+v, want %+v", c.name, k, got, want)
				}
			}
		}
	})
	t.Run("merge", func(t *testing.T) {
		// The merge/* fixtures of BenchmarkColorfulSup at the benchmark's
		// k = 3, plus the k where each peels part of its graph.
		setDenseCutoff(t, 0)
		big := gen.BigComponent(1, 230, 0.5, graph.ChunkBits+1024)
		alive, _ := kcore.FairCliquePrune(big, 3)
		fixtures := map[string]*graph.Graph{
			"searchcold": graph.InduceAlive(big, alive, nil).G,
			"ring5000":   ring(1, 5000),
		}
		cases := []struct {
			fixture      string
			k            int32
			plain, enh   int32
			plainH, enhH uint64
		}{
			{"searchcold", 3, 13118, 13118, 0xe93a2765f2dde863, 0xe93a2765f2dde863},
			{"searchcold", 11, 13117, 13117, 0x6c201566090474f4, 0x6c201566090474f4},
			{"searchcold", 12, 13115, 13114, 0x5769d7ad75d8d940, 0x1c27c746b3f684c1},
			{"searchcold", 13, 13092, 0, 0x1b81f0a27c8204ad, 0x139343b8f745149d},
			{"searchcold", 14, 12899, 0, 0x7d29eb9eaf22d170, 0x139343b8f745149d},
			{"ring5000", 1, 17979, 17979, 0x2a3a6e31b7728c3c, 0x2a3a6e31b7728c3c},
			{"ring5000", 2, 11251, 11251, 0x46422982989a9886, 0x46422982989a9886},
			{"ring5000", 3, 0, 0, 0xb03dbecc5018021d, 0xb03dbecc5018021d},
		}
		for _, c := range cases {
			g := fixtures[c.fixture]
			col := color.Greedy(g)
			p, e := ColorfulSup(g, col, c.k), EnColorfulSup(g, col, c.k)
			if p.EdgesLeft != c.plain || e.EdgesLeft != c.enh || maskHash(p.EdgeAlive) != c.plainH || maskHash(e.EdgeAlive) != c.enhH {
				t.Errorf("%s k=%d: ColorfulSup kept %d (%#x), EnColorfulSup %d (%#x); want %d (%#x), %d (%#x)",
					c.fixture, c.k, p.EdgesLeft, maskHash(p.EdgeAlive), e.EdgesLeft, maskHash(e.EdgeAlive),
					c.plain, c.plainH, c.enh, c.enhH)
			}
		}
	})
}
