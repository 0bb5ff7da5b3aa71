package graph_test

import (
	"os"
	"path/filepath"
	"testing"

	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// BenchmarkLoadSNAP streams a ~200k-edge IngestGiant SNAP pair from
// disk into a CSR with the chunk budget perfbench's ingest-answer uses
// (ChunkEdges = m/64), so the builder spills about a dozen sorted runs
// and Build merges them. It reports raw edges per second and
// allocations per load.
func BenchmarkLoadSNAP(b *testing.B) {
	want := gen.IngestGiant(1, 0.09)
	dir := b.TempDir()
	edgePath := filepath.Join(dir, "g.snap")
	attrPath := filepath.Join(dir, "g.attrs")
	write := func(path string, emit func(*os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := emit(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	write(edgePath, func(f *os.File) error { return graph.WriteSNAP(f, want) })
	write(attrPath, func(f *os.File) error { return graph.WriteSNAPAttrs(f, want) })
	cfg := graph.StreamConfig{ChunkEdges: int(want.M()) / 64, SpillDir: dir}

	b.ReportAllocs()
	var edges int64
	for b.Loop() {
		g, st, err := graph.LoadSNAP(edgePath, attrPath, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if st.RunsSpilled == 0 || g.M() != want.M() || g.N() != want.N() {
			b.Fatalf("load of n=%d m=%d spilled %d runs; want n=%d m=%d and a spill",
				g.N(), g.M(), st.RunsSpilled, want.N(), want.M())
		}
		edges += st.EdgesRead
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}
