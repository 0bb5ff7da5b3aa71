package kcore

import (
	"testing"

	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

func TestFairnessFloor(t *testing.T) {
	cases := [][2]int32{{-1, 1}, {0, 1}, {1, 1}, {2, 3}, {4, 7}, {10, 19}}
	for _, c := range cases {
		if got := FairnessFloor(c[0]); got != c[1] {
			t.Fatalf("FairnessFloor(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestFairCliquePrune(t *testing.T) {
	// A balanced K6 (core number 5) with a pendant path hanging off it.
	b := graph.NewBuilder(9)
	for v := int32(0); v < 6; v++ {
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
	g := b.Build()

	// k=3 → floor 5: exactly the K6 survives.
	alive, st := FairCliquePrune(g, 3)
	if st.Threshold != 5 || st.Survivors != 6 || st.SurvivorEdges != 15 {
		t.Fatalf("k=3 prune stats %+v", st)
	}
	for v := int32(0); v < 9; v++ {
		if alive[v] != (v < 6) {
			t.Fatalf("k=3: vertex %d alive=%v", v, alive[v])
		}
	}

	// k=1 → floor 1: everything with an edge survives.
	_, st = FairCliquePrune(g, 1)
	if st.Survivors != 9 {
		t.Fatalf("k=1 should keep the path: %+v", st)
	}

	// k=4 → floor 7: nothing survives.
	_, st = FairCliquePrune(g, 4)
	if st.Survivors != 0 || st.SurvivorEdges != 0 {
		t.Fatalf("k=4 should clear the graph: %+v", st)
	}

	// On random graphs the mask is the floor's core and the stats
	// count its vertices and edges.
	for seed := uint64(0); seed < 12; seed++ {
		g := random(seed, 80, 0.02+0.03*float64(seed))
		core := Decompose(g).Core
		for k := int32(0); k <= 5; k++ {
			alive, st := FairCliquePrune(g, k)
			var wantV, wantE int32
			for v, ok := range alive {
				if ok != (core[v] >= FairnessFloor(k)) {
					t.Fatalf("seed %d k=%d: vertex %d alive=%v, core %d", seed, k, v, ok, core[v])
				}
				if ok {
					wantV++
				}
			}
			for e := int32(0); e < g.M(); e++ {
				if u, v := g.Edge(e); alive[u] && alive[v] {
					wantE++
				}
			}
			if st.Survivors != wantV || st.SurvivorEdges != wantE {
				t.Fatalf("seed %d k=%d: stats %+v, want %d vertices and %d edges", seed, k, st, wantV, wantE)
			}
		}
	}
}

// BenchmarkFairCliquePrune peels the BenchmarkLoadSNAP instance,
// gen.IngestGiant(1, 0.09), to the (2k−1)-core of the ingest-answer
// query's k = 8.
func BenchmarkFairCliquePrune(b *testing.B) {
	g := gen.IngestGiant(1, 0.09)
	b.ReportAllocs()
	for b.Loop() {
		if _, st := FairCliquePrune(g, 8); st.Survivors == 0 {
			b.Fatal("the prune cleared the instance")
		}
	}
}
