package session

import (
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

func random(seed uint64, n int, p float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// completeGraph builds K_n with the first na vertices AttrA.
func completeGraph(n, na int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		a := graph.AttrB
		if v < na {
			a = graph.AttrA
		}
		b.SetAttr(int32(v), a)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

func independent(t *testing.T, g *graph.Graph, q Query, opt Options) *core.Result {
	t.Helper()
	res, err := core.MaxRFC(g, core.Options{
		K: int(q.K), Delta: int(q.Delta),
		UseBounds: opt.UseBounds, Extra: opt.Extra,
		UseHeuristic: opt.UseHeuristic, SkipReduction: opt.SkipReduction,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every cell of a session grid must match an independent MaxRFC run in
// size and produce a valid fair clique.
func TestSessionGridMatchesIndependent(t *testing.T) {
	opt := Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy, UseHeuristic: true}
	for seed := uint64(0); seed < 6; seed++ {
		g := random(seed, 34, 0.4)
		s := New(g, opt)
		var qs []Query
		for k := int32(1); k <= 3; k++ {
			for d := int32(0); d <= 3; d++ {
				qs = append(qs, Query{K: k, Delta: d})
			}
		}
		rs, err := s.FindGrid(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want := independent(t, g, q, opt)
			if rs[i].Size() != want.Size() {
				t.Fatalf("seed=%d (k=%d, δ=%d): session %d, independent %d",
					seed, q.K, q.Delta, rs[i].Size(), want.Size())
			}
			if rs[i].Size() > 0 && !g.IsFairClique(rs[i].Clique, int(q.K), int(q.Delta)) {
				t.Fatalf("seed=%d (k=%d, δ=%d): session clique invalid", seed, q.K, q.Delta)
			}
		}
	}
}

// The skewed K10 (8 a's, 2 b's) pins every amortization mechanism
// deterministically: the δ-descending sweep inherits upper bounds, the
// ascending rerun warm-starts from pooled cliques, and repeats are
// answered without branching.
func TestSessionAmortizationMechanisms(t *testing.T) {
	g := completeGraph(10, 8)
	s := New(g, Options{})

	sizes := map[int32]int32{0: 4, 1: 5, 4: 8, 6: 10}
	// Pass 1: δ descending (the FindGrid order) — each solved cell
	// upper-bounds the next, so StopAtSize fires throughout.
	for _, d := range []int32{6, 4, 1, 0} {
		res, err := s.Find(Query{K: 2, Delta: d})
		if err != nil {
			t.Fatal(err)
		}
		if int32(res.Size()) != sizes[d] {
			t.Fatalf("δ=%d: size %d, want %d", d, res.Size(), sizes[d])
		}
	}
	st := s.Stats()
	if st.Queries != 4 {
		t.Fatalf("queries = %d, want 4", st.Queries)
	}
	if st.ReductionBuilds != 1 {
		t.Fatalf("reduction builds = %d, want 1 (one k)", st.ReductionBuilds)
	}
	if st.ReductionReuses != 3 {
		t.Fatalf("reduction reuses = %d, want 3", st.ReductionReuses)
	}

	// Pass 2: δ ascending — every cell is already solved, so each is a
	// dominance skip with zero extra branching.
	nodes := s.Stats().Nodes
	for _, d := range []int32{0, 1, 4, 6} {
		res, err := s.Find(Query{K: 2, Delta: d})
		if err != nil {
			t.Fatal(err)
		}
		if int32(res.Size()) != sizes[d] {
			t.Fatalf("repeat δ=%d: size %d, want %d", d, res.Size(), sizes[d])
		}
		if !g.IsFairClique(res.Clique, 2, int(d)) {
			t.Fatalf("repeat δ=%d: invalid clique", d)
		}
	}
	st = s.Stats()
	if st.Nodes != nodes {
		t.Fatalf("repeated cells branched: %d extra nodes", st.Nodes-nodes)
	}
	if st.DominanceSkips != 4 {
		t.Fatalf("dominance skips = %d, want 4", st.DominanceSkips)
	}
}

// Warm starts: solving a strict cell first pools a balanced clique that
// seeds the weaker cells.
func TestSessionWarmStarts(t *testing.T) {
	g := completeGraph(10, 8)
	s := New(g, Options{})
	if res, _ := s.Find(Query{K: 2, Delta: 0}); res.Size() != 4 {
		t.Fatalf("cold (2,0): %d, want 4", res.Size())
	}
	// (2,1) has no usable bound (only stricter cells are solved) but
	// the pooled δ=0 clique is (2,1)-fair and seeds the incumbent.
	if res, _ := s.Find(Query{K: 2, Delta: 1}); res.Size() != 5 {
		t.Fatalf("warm (2,1): %d, want 5", res.Size())
	}
	if st := s.Stats(); st.WarmStarts != 1 {
		t.Fatalf("warm starts = %d, want 1", st.WarmStarts)
	}
}

// Dominance must also prove emptiness: once opt(2, δ) is known to be 4,
// every k >= 3 cell is empty (4 < 2k) and answered without branching.
func TestSessionDominanceProvesEmpty(t *testing.T) {
	g := completeGraph(4, 2) // K4, 2+2: opt(2, δ) = 4 for all δ
	s := New(g, Options{})
	if res, _ := s.Find(Query{K: 2, Delta: 0}); res.Size() != 4 {
		t.Fatalf("(2,0): %d, want 4", res.Size())
	}
	nodes := s.Stats().Nodes
	res, err := s.Find(Query{K: 3, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clique != nil {
		t.Fatalf("(3,0) on K4 should be empty, got %v", res.Clique)
	}
	st := s.Stats()
	if st.Nodes != nodes {
		t.Fatal("empty-proof cell branched")
	}
	if st.DominanceSkips != 1 {
		t.Fatalf("dominance skips = %d, want 1", st.DominanceSkips)
	}
}

// A dominance-skipped cell must report the same clique an independent
// run would find: the balanced complete graph makes the (2,1) optimum
// itself (3,1)-fair, so (3,1) is answered from the pool.
func TestSessionDominanceSkipReturnsValidOptimum(t *testing.T) {
	g := completeGraph(12, 6)
	s := New(g, Options{})
	if res, _ := s.Find(Query{K: 2, Delta: 1}); res.Size() != 12 {
		t.Fatalf("(2,1): %d, want 12", res.Size())
	}
	nodes := s.Stats().Nodes
	res, err := s.Find(Query{K: 3, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 12 || !g.IsFairClique(res.Clique, 3, 1) {
		t.Fatalf("(3,1): size %d, valid=%v; want the pooled 12-clique",
			res.Size(), g.IsFairClique(res.Clique, 3, 1))
	}
	st := s.Stats()
	if st.DominanceSkips != 1 || st.Nodes != nodes {
		t.Fatalf("expected a zero-branching skip; skips=%d extra nodes=%d",
			st.DominanceSkips, st.Nodes-nodes)
	}
}

// Aborted (MaxNodes-capped) queries must never poison the monotonicity
// table: a later identical query without pressure still gets the true
// optimum.
func TestSessionAbortedResultsNotReused(t *testing.T) {
	g := random(7, 60, 0.5)
	capped := New(g, Options{MaxNodes: 5, SkipReduction: true})
	res, err := capped.Find(Query{K: 1, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Aborted {
		t.Skip("fixture finished under the cap; nothing to verify")
	}
	// Same session, same cell again: must not be dominance-skipped into
	// the aborted (possibly sub-optimal) answer.
	if st := capped.Stats(); st.DominanceSkips != 0 {
		t.Fatalf("aborted cell entered the table: %+v", st)
	}
	want := independent(t, g, Query{K: 1, Delta: 5}, Options{SkipReduction: true})
	uncapped := New(g, Options{SkipReduction: true})
	full, err := uncapped.Find(Query{K: 1, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if full.Size() != want.Size() {
		t.Fatalf("uncapped session %d, independent %d", full.Size(), want.Size())
	}
	if res.Size() > want.Size() {
		t.Fatalf("aborted result larger than optimum: %d > %d", res.Size(), want.Size())
	}
}

// FindGrid input validation runs before any cell is touched.
func TestSessionValidation(t *testing.T) {
	s := New(random(1, 10, 0.5), Options{})
	if _, err := s.Find(Query{K: 0, Delta: 1}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := s.FindGrid([]Query{{K: 2, Delta: 1}, {K: 1, Delta: -1}}); err == nil {
		t.Fatal("negative delta in a grid should error")
	}
	if st := s.Stats(); st.Queries != 0 {
		t.Fatalf("invalid queries were counted: %+v", st)
	}
}

// Components too large for one flat row table must flow through the
// session unchanged: the >4096-vertex bigcomp instance against
// independent runs.
func TestSessionBigComponent(t *testing.T) {
	g := gen.BigComponent(5, 40, 0.5, graph.ChunkBits+100)
	opt := Options{SkipReduction: true}
	s := New(g, opt)
	qs := []Query{{K: 2, Delta: 3}, {K: 2, Delta: 1}, {K: 3, Delta: 2}}
	rs, err := s.FindGrid(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want := independent(t, g, q, opt)
		if rs[i].Size() != want.Size() {
			t.Fatalf("(k=%d, δ=%d): session %d, independent %d",
				q.K, q.Delta, rs[i].Size(), want.Size())
		}
	}
}
