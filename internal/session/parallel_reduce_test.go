package session

import (
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

// multiBlob is a disjoint union of random blobs plus one planted
// balanced clique, so the component-parallel reducer has real fan-out
// and a nontrivial optimum.
func multiBlob(seed uint64) *graph.Graph {
	r := rng.New(seed)
	const blobs, blobN = 7, 12
	b := graph.NewBuilder(blobs * blobN)
	for v := 0; v < blobs*blobN; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for c := 0; c < blobs; c++ {
		base := c * blobN
		for u := 0; u < blobN; u++ {
			for v := u + 1; v < blobN; v++ {
				if r.Bool(0.45) {
					b.AddEdge(int32(base+u), int32(base+v))
				}
			}
		}
	}
	// Planted balanced K8 inside the first blob.
	for v := 0; v < 8; v++ {
		b.SetAttr(int32(v), graph.Attr(v%2))
	}
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// TestFindParallelReductionMatchesSerial fuzzes Find and FindGrid with
// the component-parallel reducer (Workers > 1 fans the per-k
// reductions across the worker bound) against serial sessions, across all six
// Table II bound configurations and both fairness modes.
func TestFindParallelReductionMatchesSerial(t *testing.T) {
	queries := []Query{
		{K: 1, Delta: 0}, {K: 1, Delta: 2}, {K: 2, Delta: 0},
		{K: 2, Delta: 1}, {K: 3, Delta: 2}, {K: 2, Weak: true},
	}
	for seed := uint64(0); seed < 4; seed++ {
		g := multiBlob(seed)
		for _, extra := range bounds.Extras() {
			serial := New(g, Options{UseBounds: true, Extra: extra, Workers: 1})
			par := New(g, Options{UseBounds: true, Extra: extra, Workers: 4})
			for _, q := range queries {
				a, err := serial.Find(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := par.Find(q)
				if err != nil {
					t.Fatal(err)
				}
				if a.Size() != b.Size() {
					t.Fatalf("seed %d extra=%v q=%+v: serial %d vs parallel %d",
						seed, extra, q, a.Size(), b.Size())
				}
			}
			// FindGrid over the same cells on fresh sessions (no
			// incumbent warm-start asymmetry).
			sg := New(g, Options{UseBounds: true, Extra: extra, Workers: 1})
			pg := New(g, Options{UseBounds: true, Extra: extra, Workers: 4})
			ra, err := sg.FindGrid(queries)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := pg.FindGrid(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ra {
				if ra[i].Size() != rb[i].Size() {
					t.Fatalf("seed %d extra=%v grid cell %d: serial %d vs parallel %d",
						seed, extra, i, ra[i].Size(), rb[i].Size())
				}
			}
		}
	}
}

// TestPlantedOptimumSurvivesParallelReduction pins the planted K8: the
// parallel reducer must never lose it at the k it was planted for.
func TestPlantedOptimumSurvivesParallelReduction(t *testing.T) {
	g := multiBlob(99)
	s := New(g, Options{UseBounds: true, Workers: 4})
	res, err := s.Find(Query{K: 4, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 8 {
		t.Fatalf("planted K8 lost: size %d", res.Size())
	}
}
