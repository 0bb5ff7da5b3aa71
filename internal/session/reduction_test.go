package session

import (
	"slices"
	"sync"
	"testing"

	"fairclique/internal/enum"
	"fairclique/internal/graph"
)

// reduction returns the epoch's built subgraph for k, building it.
func reduction(s *Session, k int32) *graph.Subgraph {
	e := s.cur.Load()
	s.prepared(e, k)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ks[k].sub
}

// sameSub reports whether two reductions are bit-identical: structure,
// attributes and parent mapping.
func sameSub(a, b *graph.Subgraph) bool {
	if a.G.N() != b.G.N() || a.G.M() != b.G.M() || !slices.Equal(a.ToParent, b.ToParent) {
		return false
	}
	for v := int32(0); v < a.G.N(); v++ {
		if a.G.Attr(v) != b.G.Attr(v) {
			return false
		}
	}
	for e := int32(0); e < a.G.M(); e++ {
		au, av := a.G.Edge(e)
		bu, bv := b.G.Edge(e)
		if au != bu || av != bv {
			return false
		}
	}
	return true
}

// Each k's reduction is built once per epoch and reused after; a build
// chains off the largest smaller k already built, so it can only shrink
// relative to its base.
func TestReductionReuseAndChaining(t *testing.T) {
	s := New(random(7, 40, 0.4), Options{})
	e := s.cur.Load()
	p2 := s.prepared(e, 2)
	if s.prepared(e, 2) != p2 {
		t.Fatal("repeat k=2 did not return the built Prepared")
	}
	if s.prepared(e, 3) == p2 {
		t.Fatal("k=3 returned the k=2 Prepared")
	}
	s.prepared(e, 3)
	s.prepared(e, 2)
	st := s.Stats()
	if st.ReductionBuilds != 2 || st.ReductionReuses != 3 || st.ReductionChained != 1 {
		t.Fatalf("builds/reuses/chained = %d/%d/%d, want 2/3/1 (k=3 off the k=2 subgraph)",
			st.ReductionBuilds, st.ReductionReuses, st.ReductionChained)
	}
	s2, s3 := reduction(s, 2), reduction(s, 3)
	if s3.G.N() > s2.G.N() || s3.G.M() > s2.G.M() {
		t.Fatalf("k=3 reduction (%dv/%de) larger than its k=2 base (%dv/%de)",
			s3.G.N(), s3.G.M(), s2.G.N(), s2.G.M())
	}
}

// Chained reductions must still map back to the session graph: every
// surviving vertex keeps its attribute, every surviving edge exists in
// the graph, and ToParent ascends (reduce.Patch relies on it).
func TestChainedReductionMapsToGraph(t *testing.T) {
	g := random(11, 36, 0.45)
	s := New(g, Options{})
	reduction(s, 1)
	for _, k := range []int32{2, 3, 4} {
		sub := reduction(s, k)
		if !slices.IsSorted(sub.ToParent) {
			t.Fatalf("k=%d: ToParent not ascending", k)
		}
		for v := int32(0); v < sub.G.N(); v++ {
			if sub.G.Attr(v) != g.Attr(sub.ToParent[v]) {
				t.Fatalf("k=%d: vertex %d attribute mismatch through ToParent", k, v)
			}
		}
		for e := int32(0); e < sub.G.M(); e++ {
			u, v := sub.G.Edge(e)
			if !g.HasEdge(sub.ToParent[u], sub.ToParent[v]) {
				t.Fatalf("k=%d: edge (%d,%d) not present in the graph", k, u, v)
			}
		}
	}
	if st := s.Stats(); st.ReductionChained != 3 {
		t.Fatalf("chained = %d, want 3", st.ReductionChained)
	}
}

// The load-bearing invariant of chaining: a chained reduction keeps the
// maximum fair clique exactly, for every δ, checked against the
// independent Bron–Kerbosch baseline.
func TestChainedReductionPreservesOptimum(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := random(seed, 30, 0.45)
		s := New(g, Options{})
		for k := 1; k <= 4; k++ {
			sub := reduction(s, int32(k)) // k > 1 chains off k-1
			for _, delta := range []int{0, 1, 3} {
				want := len(enum.MaxFairClique(g, k, delta))
				if got := len(enum.MaxFairClique(sub.G, k, delta)); got != want {
					t.Fatalf("seed=%d k=%d δ=%d: chained reduction optimum %d, graph %d",
						seed, k, delta, got, want)
				}
			}
		}
	}
}

// The reduction fans components across the session's worker bound; a
// parallel session's chained reductions are bit-identical to a serial
// session's.
func TestChainedReductionWorkersBitIdentical(t *testing.T) {
	g := multiBlob(7)
	serial := New(g, Options{Workers: 1})
	par := New(g, Options{Workers: 4})
	for _, k := range []int32{1, 3, 2, 4} { // out of order: exercises chaining
		if !sameSub(reduction(serial, k), reduction(par, k)) {
			t.Fatalf("k=%d: Workers 4 reduction differs from Workers 1", k)
		}
	}
}

// First queries at three k racing on one session build their
// reductions in parallel, each exactly once. None of the three cells
// bounds another, so no query is answered without preparing its k. Run
// under -race by make test-race.
func TestConcurrentFirstFindsBuildEachKOnce(t *testing.T) {
	g := random(3, 40, 0.4)
	s := New(g, Options{UseBounds: true, Workers: 2})
	qs := []Query{{K: 1, Delta: 0}, {K: 2, Delta: 1}, {K: 3, Delta: 2}}
	got := make([]int, 24)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Find(qs[i%3])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res.Size()
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.ReductionBuilds != 3 {
		t.Fatalf("builds = %d, want 3", st.ReductionBuilds)
	}
	for i, size := range got {
		q := qs[i%3]
		if want := independent(t, g, q, Options{UseBounds: true}).Size(); size != want {
			t.Fatalf("goroutine %d q=%+v: size %d, independent %d", i, q, size, want)
		}
	}
}

// A chord between two far shell vertices cannot change the reduction:
// Apply keeps the subgraph and its Prepared by pointer, counts every
// built component as reused, and the next query builds nothing.
func TestFarInsertKeepsReductionByPointer(t *testing.T) {
	// A balanced K6 nucleus (0-5) on a 30-vertex shell cycle (6-35)
	// hanging off vertex 0.
	const n = 36
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		b.SetAttr(v, graph.Attr(v%2))
	}
	for u := int32(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(0, 6)
	for v := int32(6); v < n; v++ {
		b.AddEdge(v, 6+(v-5)%(n-6))
	}
	s := New(b.Build(), Options{UseBounds: true})
	if _, err := s.Find(Query{K: 2, Delta: 2}); err != nil {
		t.Fatal(err)
	}
	old := s.cur.Load().ks[2]
	built := int64(old.p.PreparedComponents())
	if built < 1 {
		t.Fatal("the query built no component")
	}
	ast, err := s.Apply(&graph.Delta{AddEdges: [][2]int32{{10, 25}}})
	if err != nil {
		t.Fatal(err)
	}
	if ast.SnapshotsReused != 1 || ast.SnapshotsPatched != 0 || ast.SnapshotsRippled != 0 {
		t.Fatalf("reused/patched/rippled = %d/%d/%d, want 1/0/0",
			ast.SnapshotsReused, ast.SnapshotsPatched, ast.SnapshotsRippled)
	}
	cur := s.cur.Load().ks[2]
	if cur.sub != old.sub || cur.p != old.p {
		t.Fatal("the far insert replaced the subgraph or its Prepared")
	}
	if ast.CompPrepsReused != built {
		t.Fatalf("CompPrepsReused = %d, want the %d built components", ast.CompPrepsReused, built)
	}
	before := s.Stats().ReductionBuilds
	// (2, 3) is bounded by no solved cell, so it searches.
	res, err := s.Find(Query{K: 2, Delta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 6 {
		t.Fatalf("post-insert (2, 3) optimum %d, want the K6", res.Size())
	}
	if st := s.Stats(); st.ReductionBuilds != before || st.ReductionReuses < 1 {
		t.Fatalf("the next Find built %d reductions (reuses %d), want 0",
			st.ReductionBuilds-before, st.ReductionReuses)
	}
}
