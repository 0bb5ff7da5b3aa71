package core

import (
	"testing"
	"testing/quick"

	"fairclique/internal/bounds"
	"fairclique/internal/enum"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// multiComponent builds several disjoint random blobs, some with
// planted fair cliques, so the component-level parallelism has real
// work to distribute.
func multiComponent(seed uint64, blocks int) *graph.Graph {
	b := graph.NewBuilder(0)
	for i := 0; i < blocks; i++ {
		base := b.N()
		g := random(seed+uint64(i), 18, 0.5)
		for v := int32(0); v < g.N(); v++ {
			b.AddVertex(g.Attr(v))
		}
		for e := int32(0); e < g.M(); e++ {
			u, v := g.Edge(e)
			b.AddEdge(base+u, base+v)
		}
	}
	return b.Build()
}

// Parallel search returns the same optimum size as the serial search.
func TestParallelMatchesSerial(t *testing.T) {
	f := func(seed uint64, blocks8, k8, d8 uint8) bool {
		blocks := int(blocks8%4) + 2
		k := int(k8%3) + 1
		delta := int(d8 % 4)
		g := multiComponent(seed, blocks)
		serial, err1 := MaxRFC(g, Options{K: k, Delta: delta})
		par, err2 := MaxRFC(g, Options{K: k, Delta: delta, Workers: 4})
		if err1 != nil || err2 != nil {
			return false
		}
		if serial.Size() != par.Size() {
			t.Logf("seed=%d blocks=%d k=%d δ=%d: serial %d, parallel %d",
				seed, blocks, k, delta, serial.Size(), par.Size())
			return false
		}
		if par.Size() > 0 && !g.IsFairClique(par.Clique, k, delta) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Parallel search with every feature enabled still matches the
// Bron-Kerbosch oracle.
func TestParallelFullFeaturesMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := multiComponent(seed, 3)
		want := len(enum.MaxFairClique(g, 2, 1))
		res, err := MaxRFC(g, Options{
			K: 2, Delta: 1,
			UseBounds: true, Extra: bounds.ColorfulPath, UseHeuristic: true,
			Workers: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() != want {
			t.Fatalf("seed %d: parallel %d, oracle %d", seed, res.Size(), want)
		}
	}
}

// The abort valve works under parallelism and never produces an
// invalid clique.
func TestParallelAbort(t *testing.T) {
	g := multiComponent(3, 6)
	res, err := MaxRFC(g, Options{K: 1, Delta: 5, Workers: 4, MaxNodes: 20, SkipReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Aborted {
		t.Skip("search finished before the cap; nothing to verify")
	}
	if res.Clique != nil && !g.IsFairClique(res.Clique, 1, 5) {
		t.Fatal("aborted parallel result invalid")
	}
}

// Parallelism on a realistic dataset stand-in.
func TestParallelOnDataset(t *testing.T) {
	d, err := gen.DatasetByName("dblp-sim")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build(0.15)
	serial, err := MaxRFC(g, Options{K: 4, Delta: 3, UseBounds: true, Extra: bounds.ColorfulDegeneracy})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MaxRFC(g, Options{K: 4, Delta: 3, UseBounds: true, Extra: bounds.ColorfulDegeneracy, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Size() != par.Size() {
		t.Fatalf("serial %d vs parallel %d", serial.Size(), par.Size())
	}
}

// The root split over per-root tables: every worker rebuilds its own
// table at each root branch it claims, so on table-less components —
// the >4096-vertex bigComponentInstance and gen.HubFan(2100), whose
// hub branches as a list node — Workers = 4 must match Workers = 1 and
// the slice oracle (make test-race runs this under the race detector).
func TestPerRootSplitMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"bigcomp", bigComponentInstance(11), 2},
		{"hubfan", gen.HubFan(2100), 1},
	} {
		want := runWithSliceOracle(t, tc.g, Options{K: tc.k, Delta: 1, SkipReduction: true}).Size()
		for _, bounded := range []bool{false, true} {
			opt := Options{K: tc.k, Delta: 1, SkipReduction: true, UseBounds: bounded, Extra: bounds.ColorfulDegeneracy}
			for _, workers := range []int{1, 4} {
				opt.Workers = workers
				res := mustMaxRFC(t, tc.g, opt)
				if res.Size() != want {
					t.Fatalf("%s bounds=%v workers=%d: size %d, slice oracle %d",
						tc.name, bounded, workers, res.Size(), want)
				}
				if want > 0 && !tc.g.IsFairClique(res.Clique, tc.k, 1) {
					t.Fatalf("%s bounds=%v workers=%d: invalid clique", tc.name, bounded, workers)
				}
			}
		}
	}
}
