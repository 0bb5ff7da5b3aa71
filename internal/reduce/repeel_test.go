package reduce

import (
	"slices"
	"testing"

	"fairclique/internal/graph"
	"fairclique/internal/kcore"
	"fairclique/internal/rng"
)

// componentRepeel is the delete-only patch that walks every touched
// component: it floods the components holding a deleted edge's
// endpoint, induces them without the deleted edges and takes their
// (2k−1)-core with kcore.KCore. repeel must keep exactly what it keeps.
func componentRepeel(sub *graph.Subgraph, info *graph.ApplyInfo, k int32) *graph.Subgraph {
	dirty, _ := touchedComponents(sub, info)
	if dirty == nil {
		return sub
	}
	eAlive := make([]bool, sub.G.M())
	for e := range eAlive {
		eAlive[e] = true
	}
	removed := false
	for _, d := range info.Deleted {
		u, okU := slices.BinarySearch(sub.ToParent, d[0])
		v, okV := slices.BinarySearch(sub.ToParent, d[1])
		if !okU || !okV {
			continue
		}
		if e, ok := sub.G.EdgeID(int32(u), int32(v)); ok {
			eAlive[e] = false
			removed = true
		}
	}
	if !removed {
		return sub
	}
	touched := graph.InduceAlive(sub.G, dirty, eAlive)
	vAlive := make([]bool, sub.G.N())
	for v, d := range dirty {
		vAlive[v] = !d
	}
	for i, ok := range kcore.KCore(touched.G, kcore.FairnessFloor(k)) {
		if ok {
			vAlive[touched.ToParent[i]] = true
		}
	}
	out := graph.InduceAlive(sub.G, vAlive, eAlive)
	out.ToParent = chain(sub.ToParent, out.ToParent)
	return out
}

// On 240 random delete-only deltas × k ∈ {1, 2, 3}, Patch's in-place
// peel from the deleted edges' endpoints must return what peeling every
// touched component returns, bit for bit, and sub itself exactly when
// that does. Most deltas cut edges of the reduction, so the peel runs.
func TestRepeelMatchesComponentPeel(t *testing.T) {
	r := rng.New(24)
	var peeled, shrunk int
	for trial := 0; trial < 240; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = multiComponent(uint64(trial), 4, 14, 0.6)
		case 1:
			g = plantClique(uint64(trial), 40, 3)
		default:
			g = random(uint64(trial), 30, 0.4)
		}
		for k := int32(1); k <= 3; k++ {
			sub, _ := Pipeline(g, k)
			d := &graph.Delta{}
			for i := 0; i < 1+r.Intn(3); i++ {
				if sub.G.M() > 0 && r.Intn(4) > 0 {
					u, v := sub.G.Edge(int32(r.Intn(int(sub.G.M()))))
					d.DelEdges = append(d.DelEdges, [2]int32{sub.ToParent[u], sub.ToParent[v]})
				} else if g.M() > 0 {
					u, v := g.Edge(int32(r.Intn(int(g.M()))))
					d.DelEdges = append(d.DelEdges, [2]int32{u, v})
				}
			}
			newG, info, err := graph.ApplyDelta(g, d)
			if err != nil {
				t.Fatal(err)
			}
			got, want := Patch(sub, newG, info, nil, k, 1), componentRepeel(sub, info, k)
			if (got == sub) != (want == sub) || subHash(got) != subHash(want) {
				t.Fatalf("trial %d k=%d delta %v: repeel kept n=%d m=%d (reused %v), component peel n=%d m=%d (reused %v)",
					trial, k, d.DelEdges, got.G.N(), got.G.M(), got == sub, want.G.N(), want.G.M(), want == sub)
			}
			if got != sub {
				peeled++
				if got.G.N() < sub.G.N() {
					shrunk++
				}
			}
		}
	}
	if peeled < 500 || shrunk < 150 {
		t.Fatalf("only %d re-peels, %d of them dropping a vertex", peeled, shrunk)
	}
}
