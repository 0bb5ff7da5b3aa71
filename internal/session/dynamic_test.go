package session

import (
	"sync"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

// randomDelta draws a small random batch of insertions/deletions (and
// occasionally new vertices) valid for g.
func randomDelta(r *rng.RNG, g *graph.Graph) *graph.Delta {
	d := &graph.Delta{}
	n := int(g.N())
	for i := 0; i < r.Intn(3); i++ {
		d.AddVertices = append(d.AddVertices, graph.Attr(r.Intn(2)))
	}
	newN := n + len(d.AddVertices)
	for i := 0; i < 1+r.Intn(3); i++ {
		u, v := int32(r.Intn(newN)), int32(r.Intn(newN))
		if u != v {
			d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		}
	}
	for i := 0; i < r.Intn(3) && g.M() > 0; i++ {
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

// The dynamic differential wall: interleave random deltas with queries
// and assert every post-Apply answer equals a fresh session built on
// the mutated graph — for every Table II bound config.
func TestApplyDifferentialAgainstFreshSession(t *testing.T) {
	extras := []bounds.Extra{
		bounds.None, bounds.Degeneracy, bounds.HIndex,
		bounds.ColorfulDegeneracy, bounds.ColorfulHIndex, bounds.ColorfulPath,
	}
	r := rng.New(2024)
	for seed := uint64(0); seed < 6; seed++ {
		opt := Options{UseBounds: true, Extra: extras[seed%6], UseHeuristic: true}
		g := random(seed+70, 24+int(seed%3)*6, 0.35)
		s := New(g, opt)
		qs := []Query{
			{K: 1, Delta: 1}, {K: 2, Delta: 0}, {K: 2, Delta: 2},
			{K: 3, Delta: 1}, {K: 2, Weak: true}, {K: 1, Delta: 0},
		}
		// Warm the session before the first delta.
		if _, err := s.FindGrid(qs); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			d := randomDelta(r, s.Graph())
			if _, err := s.Apply(d); err != nil {
				t.Fatal(err)
			}
			fresh := New(s.Graph(), opt)
			for _, q := range qs {
				got, err := s.Find(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Find(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Size() != want.Size() {
					t.Fatalf("seed=%d round=%d q=%+v: warm session %d, fresh session %d",
						seed, round, q, got.Size(), want.Size())
				}
				if got.Size() > 0 {
					delta := int(q.Delta)
					if q.Weak {
						delta = int(s.Graph().N())
					}
					if !s.Graph().IsFairClique(got.Clique, int(q.K), delta) {
						t.Fatalf("seed=%d round=%d q=%+v: post-Apply clique invalid", seed, round, q)
					}
				}
			}
		}
	}
}

// FuzzApplyDifferential drives random Delta sequences through Apply on
// a warm session over multiBlob — seven blobs and a planted K8, so the
// reductions have several components — and after every Apply checks
// each cell's size against a fresh session on the mutated graph, and
// each clique for fairness.
func FuzzApplyDifferential(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 5, 11} {
		f.Add(seed)
	}
	qs := []Query{
		{K: 1, Delta: 1}, {K: 2, Delta: 0}, {K: 2, Delta: 2},
		{K: 3, Delta: 1}, {K: 2, Weak: true},
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		extras := bounds.Extras()
		opt := Options{UseBounds: true, Extra: extras[seed%uint64(len(extras))], UseHeuristic: true}
		s := New(multiBlob(seed), opt)
		if _, err := s.FindGrid(qs); err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		for round, rounds := 0, 1+r.Intn(3); round < rounds; round++ {
			d := randomDelta(r, s.Graph())
			if _, err := s.Apply(d); err != nil {
				t.Fatalf("round %d: Apply(%+v): %v", round, d, err)
			}
			g := s.Graph()
			fresh := New(g, opt)
			for _, q := range qs {
				got, err := s.Find(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Find(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Size() != want.Size() {
					t.Fatalf("round %d q=%+v: warm session %d, fresh session %d", round, q, got.Size(), want.Size())
				}
				delta := int(q.Delta)
				if q.Weak {
					delta = int(g.N())
				}
				if got.Size() > 0 && !g.IsFairClique(got.Clique, int(q.K), delta) {
					t.Fatalf("round %d q=%+v: clique %v is not fair", round, q, got.Clique)
				}
			}
		}
	})
}

// A delta confined to one component re-peels the reduction from the
// deleted edge's endpoints, so the untouched components stay in the
// reduced subgraph and their cliques in the pool; the new entry gets a
// fresh Prepared with no component built (a rippled Apply carries no
// component machinery; a search builds what it needs), the answer
// stays exact, and the retained pool and table still answer a solved
// cell without branching.
func TestApplyReusesUntouchedComponents(t *testing.T) {
	// Three disjoint balanced K6s.
	b := graph.NewBuilder(18)
	for v := int32(0); v < 18; v++ {
		b.SetAttr(v, graph.Attr(v%2))
	}
	for base := int32(0); base < 18; base += 6 {
		for u := base; u < base+6; u++ {
			for v := u + 1; v < base+6; v++ {
				b.AddEdge(u, v)
			}
		}
	}
	s := New(b.Build(), Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy})
	// δ=5 keeps every component feasible so all three get built.
	if _, err := s.Find(Query{K: 1, Delta: 5}); err != nil {
		t.Fatal(err)
	}

	// Delete one edge inside the third K6: components one and two are
	// untouched, but the re-peeled subgraph is a new one, so its
	// Prepared is new too and carries no built component.
	ast, err := s.Apply(&graph.Delta{DelEdges: [][2]int32{{12, 13}}})
	if err != nil {
		t.Fatal(err)
	}
	if ast.CompPrepsReused != 0 {
		t.Fatalf("reused %d compPreps after a rippled Apply, want 0: %+v", ast.CompPrepsReused, ast)
	}
	if built := s.cur.Load().ks[1].p.PreparedComponents(); built != 0 {
		t.Fatalf("the new entry's Prepared has %d built components before any search, want 0", built)
	}
	// A delete-only delta is served by the fairness-floor re-peel, not
	// a dirty-region re-reduction.
	if ast.SnapshotsRippled != 1 || ast.SnapshotsPatched != 0 {
		t.Fatalf("rippled %d / patched %d snapshots, want 1/0: %+v",
			ast.SnapshotsRippled, ast.SnapshotsPatched, ast)
	}
	res, err := s.Find(Query{K: 1, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 6 {
		t.Fatalf("post-delta optimum %d, want 6", res.Size())
	}
	st := s.Stats()
	if st.Applies != 1 || st.Epoch != 1 {
		t.Fatalf("stats applies/epoch = %d/%d, want 1/1", st.Applies, st.Epoch)
	}
	if st.CompPrepsReused != ast.CompPrepsReused {
		t.Fatalf("stats CompPrepsReused %d != apply's %d", st.CompPrepsReused, ast.CompPrepsReused)
	}

	// A deletion-only delta keeps the pool's untouched cliques and the
	// table as upper bounds: re-answering the solved cell must be a
	// dominance skip, not a fresh search.
	skipsBefore := st.DominanceSkips
	nodesBefore := st.Nodes
	if _, err := s.Find(Query{K: 1, Delta: 5}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.DominanceSkips != skipsBefore+1 {
		t.Fatalf("requery of a solved post-delta cell was not skipped: %+v", st)
	}
	if st.Nodes != nodesBefore {
		t.Fatalf("requery branched %d nodes", st.Nodes-nodesBefore)
	}
}

// A deletion that breaks the optimum's witness must drop it from the
// pool and still yield the exact (smaller) new optimum.
func TestApplyDropsBrokenWitness(t *testing.T) {
	g := completeGraph(8, 4)
	s := New(g, Options{})
	res, err := s.Find(Query{K: 2, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 8 {
		t.Fatalf("K8 optimum %d, want 8", res.Size())
	}
	ast, err := s.Apply(&graph.Delta{DelEdges: [][2]int32{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if ast.PoolDropped == 0 {
		t.Fatalf("broken witness not dropped: %+v", ast)
	}
	// Dropping vertex 0 or 1 leaves a K7 with counts (3, 4): fair at
	// (2, 1) but not at (2, 0).
	res, err = s.Find(Query{K: 2, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 7 {
		t.Fatalf("post-deletion optimum %d, want 7", res.Size())
	}
}

// An insertion that creates a bigger optimum must not be hidden by a
// stale monotonicity bound.
func TestApplyInsertionRaisesOptimum(t *testing.T) {
	// K8 minus one edge: optimum 7 at (2, 1)... then restore the edge.
	g := completeGraph(8, 4)
	newG, _, err := graph.ApplyDelta(g, &graph.Delta{DelEdges: [][2]int32{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(newG, Options{})
	res, err := s.Find(Query{K: 2, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 7 {
		t.Fatalf("pre-insert optimum %d, want 7", res.Size())
	}
	if _, err := s.Apply(&graph.Delta{AddEdges: [][2]int32{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Find(Query{K: 2, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 8 {
		t.Fatalf("post-insert optimum %d, want 8 (stale upper bound?)", res.Size())
	}
}

// Vertex lifecycle: appending attributed vertices wired into the
// optimum and isolating them again, across weak queries whose δ tracks
// the live vertex count.
func TestApplyVertexInsertAndDelete(t *testing.T) {
	g := completeGraph(6, 3)
	s := New(g, Options{})
	res, err := s.Find(Query{K: 3, Weak: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 6 {
		t.Fatalf("K6 weak optimum %d, want 6", res.Size())
	}
	// Append two vertices fully wired into the clique.
	d := &graph.Delta{AddVertices: []graph.Attr{graph.AttrA, graph.AttrB}}
	for v := int32(0); v < 6; v++ {
		d.AddEdges = append(d.AddEdges, [2]int32{v, 6}, [2]int32{v, 7})
	}
	d.AddEdges = append(d.AddEdges, [2]int32{6, 7})
	if _, err := s.Apply(d); err != nil {
		t.Fatal(err)
	}
	res, err = s.Find(Query{K: 3, Weak: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 8 {
		t.Fatalf("post-append weak optimum %d, want 8", res.Size())
	}
	// Delete one of them again.
	if _, err := s.Apply(&graph.Delta{DelVertices: []int32{6}}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Find(Query{K: 3, Weak: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 7 {
		t.Fatalf("post-isolate weak optimum %d, want 7", res.Size())
	}
}

// Queries racing Apply must stay exact for whichever epoch they
// landed on: sizes match either the pre- or the post-delta optimum,
// never a mix. Run under -race by make test-race.
func TestQueryDuringApplyRace(t *testing.T) {
	g := completeGraph(10, 5)
	preWant := 10
	s := New(g, Options{})
	// Answers after i deletions of disjoint K10 edges: 10, 9, 8.
	deltas := []*graph.Delta{
		{DelEdges: [][2]int32{{0, 1}}},
		{DelEdges: [][2]int32{{2, 3}}},
	}
	valid := map[int]bool{preWant: true, 9: true, 8: true}

	var wg sync.WaitGroup
	errCh := make(chan string, 64)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Find(Query{K: 2, Delta: 2})
				if err != nil {
					errCh <- err.Error()
					return
				}
				if !valid[res.Size()] {
					errCh <- "impossible size"
					return
				}
			}
		}()
	}
	for _, d := range deltas {
		if _, err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for e := range errCh {
		t.Fatal(e)
	}
	// Settled state: exactly the post-both-deltas optimum.
	res, err := s.Find(Query{K: 2, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 8 {
		t.Fatalf("settled optimum %d, want 8", res.Size())
	}
}

// An empty delta must be a true no-op: same epoch, no counters, no
// graph rebuild.
func TestApplyEmptyDeltaNoOp(t *testing.T) {
	g := completeGraph(6, 3)
	s := New(g, Options{})
	if _, err := s.Find(Query{K: 2, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	before := s.cur.Load()
	ast, err := s.Apply(&graph.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if ast.Epoch != 0 {
		t.Fatalf("empty delta created epoch %d", ast.Epoch)
	}
	if s.cur.Load() != before {
		t.Fatal("empty delta swapped the epoch")
	}
	if st := s.Stats(); st.Applies != 0 || st.Epoch != 0 {
		t.Fatalf("empty delta counted: %+v", st)
	}
}

// An insert that merges two components must be answered on the joined
// graph: two balanced K6 halves joined by all 36 cross edges become
// K12, and the requery after Apply must find all of it, even though the
// table and the pool still hold the pre-merge answer of 6.
func TestApplyMergeFindsJoinedClique(t *testing.T) {
	b := graph.NewBuilder(12)
	for half := 0; half < 2; half++ {
		base := int32(half * 6)
		for v := int32(0); v < 6; v++ {
			a := graph.AttrB
			if v < 3 {
				a = graph.AttrA
			}
			b.SetAttr(base+v, a)
		}
		for u := int32(0); u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	s := New(b.Build(), Options{})
	q := Query{K: 1, Delta: 0}
	if res, err := s.Find(q); err != nil || res.Size() != 6 {
		t.Fatalf("pre-merge optimum %v, %v; want 6", res, err)
	}

	d := &graph.Delta{}
	for u := int32(0); u < 6; u++ {
		for v := int32(6); v < 12; v++ {
			d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		}
	}
	if _, err := s.Apply(d); err != nil {
		t.Fatal(err)
	}

	res, err := s.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 12 {
		t.Fatalf("post-merge optimum %d, want the full K12", res.Size())
	}
	if !s.Graph().IsFairClique(res.Clique, 1, 0) {
		t.Fatal("post-merge answer is not a fair clique")
	}
}
