package core

import (
	"testing"
	"testing/quick"

	"fairclique/internal/bounds"
	"fairclique/internal/enum"
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

// example1Graph mirrors the structure of the paper's Example 1: an
// 8-clique S with 5 attribute-a and 3 attribute-b vertices, plus sparse
// periphery. With k=3, δ=1 the answer is |S|-1 = 7 (drop any a).
func example1Graph() *graph.Graph {
	b := graph.NewBuilder(15)
	attrs := []graph.Attr{
		graph.AttrB, graph.AttrB, graph.AttrB, // 0,1,2 = v7,v8,v10 (b)
		graph.AttrA, graph.AttrA, graph.AttrA, graph.AttrA, graph.AttrA, // 3..7 = v11..v15 (a)
		graph.AttrB, graph.AttrA, graph.AttrA, graph.AttrB, graph.AttrA, graph.AttrB, graph.AttrA,
	}
	for v, a := range attrs {
		b.SetAttr(int32(v), a)
	}
	// The 8-clique.
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	// Periphery: a few triangles hanging off.
	b.AddEdge(8, 9)
	b.AddEdge(9, 10)
	b.AddEdge(8, 10)
	b.AddEdge(10, 11)
	b.AddEdge(11, 12)
	b.AddEdge(12, 13)
	b.AddEdge(13, 14)
	b.AddEdge(0, 8)
	b.AddEdge(3, 9)
	return b.Build()
}

func mustMaxRFC(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	res, err := MaxRFC(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExample1(t *testing.T) {
	g := example1Graph()
	for _, opt := range allVariants(3, 1) {
		res := mustMaxRFC(t, g, opt)
		if res.Size() != 7 {
			t.Fatalf("%+v: size %d; want 7", opt, res.Size())
		}
		if !g.IsFairClique(res.Clique, 3, 1) {
			t.Fatalf("%+v: result not a fair clique", opt)
		}
		na, nb := g.CountAttrs(res.Clique)
		if na != 4 || nb != 3 {
			t.Fatalf("%+v: counts %d/%d; want 4/3", opt, na, nb)
		}
	}
}

// allVariants enumerates the paper's three algorithm flavours plus all
// Table II bound configurations.
func allVariants(k, delta int) []Options {
	var out []Options
	out = append(out, Options{K: k, Delta: delta}) // plain MaxRFC
	for _, extra := range bounds.Extras() {
		out = append(out, Options{K: k, Delta: delta, UseBounds: true, Extra: extra})
		out = append(out, Options{K: k, Delta: delta, UseBounds: true, Extra: extra, UseHeuristic: true})
	}
	out = append(out, Options{K: k, Delta: delta, SkipReduction: true})
	out = append(out, Options{K: k, Delta: delta, UseHeuristic: true})
	return out
}

func TestInvalidOptions(t *testing.T) {
	g := random(1, 10, 0.5)
	if _, err := MaxRFC(g, Options{K: 0, Delta: 1}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := MaxRFC(g, Options{K: 2, Delta: -1}); err == nil {
		t.Fatal("negative delta should error")
	}
}

func TestNoSolution(t *testing.T) {
	// All vertices attribute a.
	b := graph.NewBuilder(8)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.Build()
	res := mustMaxRFC(t, g, Options{K: 1, Delta: 3})
	if res.Clique != nil {
		t.Fatalf("expected nil clique, got %v", res.Clique)
	}
}

func TestEmptyGraph(t *testing.T) {
	res := mustMaxRFC(t, graph.NewBuilder(0).Build(), Options{K: 2, Delta: 1})
	if res.Clique != nil || res.Size() != 0 {
		t.Fatal("empty graph should yield no clique")
	}
}

// The heart of the validation: every variant agrees with the
// brute-force subset oracle on random graphs across (k, δ).
func TestMaxRFCMatchesOracle(t *testing.T) {
	f := func(seed uint64, n8, p8, k8, d8 uint8) bool {
		n := int(n8%13) + 2
		p := 0.25 + float64(p8%65)/100
		k := int(k8%3) + 1
		delta := int(d8 % 4)
		g := random(seed, n, p)
		want := len(enum.BruteForceMaxFair(g, k, delta))
		for _, opt := range allVariants(k, delta) {
			res, err := MaxRFC(g, opt)
			if err != nil {
				return false
			}
			if res.Size() != want {
				t.Logf("seed=%d n=%d p=%.2f k=%d δ=%d opt=%+v: got %d want %d",
					seed, n, p, k, delta, opt, res.Size(), want)
				return false
			}
			if want > 0 && !g.IsFairClique(res.Clique, k, delta) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Denser, larger instances against the Bron–Kerbosch oracle (which
// handles more vertices than the subset oracle).
func TestMaxRFCMatchesEnumOnLargerGraphs(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		n := 35
		g := random(seed, n, 0.35)
		for _, kd := range [][2]int{{1, 0}, {2, 1}, {2, 3}, {3, 2}} {
			k, delta := kd[0], kd[1]
			want := len(enum.MaxFairClique(g, k, delta))
			for _, opt := range []Options{
				{K: k, Delta: delta},
				{K: k, Delta: delta, UseBounds: true, Extra: bounds.ColorfulPath, UseHeuristic: true},
				{K: k, Delta: delta, UseBounds: true, Extra: bounds.ColorfulDegeneracy},
			} {
				res := mustMaxRFC(t, g, opt)
				if res.Size() != want {
					t.Fatalf("seed=%d k=%d δ=%d %+v: got %d want %d",
						seed, k, delta, opt, res.Size(), want)
				}
			}
		}
	}
}

// δ=0 regression: a balanced clique with one extra same-attribute
// candidate (the case that breaks leaves-only recording).
func TestBalancedCliqueWithPendantCandidate(t *testing.T) {
	// K4 balanced {0a,1a,2b,3b} plus vertex 4 (a) adjacent to all of K4.
	// With δ=0 the optimum is the K4; {0,1,4,2,3} has 3 a's vs 2 b's.
	b := graph.NewBuilder(5)
	b.SetAttr(0, graph.AttrA)
	b.SetAttr(1, graph.AttrA)
	b.SetAttr(2, graph.AttrB)
	b.SetAttr(3, graph.AttrB)
	b.SetAttr(4, graph.AttrA)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.Build()
	for _, opt := range allVariants(2, 0) {
		res := mustMaxRFC(t, g, opt)
		if res.Size() != 4 {
			t.Fatalf("%+v: size %d; want 4", opt, res.Size())
		}
	}
}

// Highly skewed attribute counts exercise the declaration branches.
func TestSkewedCliques(t *testing.T) {
	// K10 with 8 a's, 2 b's. k=2: δ=1 -> 3+2=5; δ=4 -> 6+2=8; δ=6 -> 8+2=10.
	b := graph.NewBuilder(10)
	for v := 8; v < 10; v++ {
		b.SetAttr(int32(v), graph.AttrB)
	}
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.Build()
	for _, tc := range []struct{ delta, want int }{{1, 5}, {4, 8}, {6, 10}, {0, 4}} {
		for _, opt := range allVariants(2, tc.delta) {
			res := mustMaxRFC(t, g, opt)
			if res.Size() != tc.want {
				t.Fatalf("δ=%d %+v: size %d; want %d", tc.delta, opt, res.Size(), tc.want)
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := random(5, 40, 0.3)
	res := mustMaxRFC(t, g, Options{K: 2, Delta: 1, UseBounds: true, Extra: bounds.ColorfulPath, UseHeuristic: true})
	if res.Stats.Nodes == 0 && res.Size() > 0 {
		t.Fatal("no nodes counted despite a found clique")
	}
	if res.Stats.ReducedVertices > g.N() || res.Stats.ReducedEdges > g.M() {
		t.Fatalf("reduction grew the graph: %+v", res.Stats)
	}
	if res.Stats.BoundChecks < res.Stats.BoundPrunes {
		t.Fatalf("more prunes than checks: %+v", res.Stats)
	}
}

func TestMaxNodesAbort(t *testing.T) {
	g := random(7, 60, 0.5)
	res := mustMaxRFC(t, g, Options{K: 1, Delta: 5, MaxNodes: 10, SkipReduction: true})
	if !res.Stats.Aborted {
		t.Fatal("expected abort")
	}
	// Whatever was found must still be valid.
	if res.Clique != nil && !g.IsFairClique(res.Clique, 1, 5) {
		t.Fatal("aborted result invalid")
	}
}

// The search must be deterministic: same graph, same options, same
// answer (same vertex set, not just same size).
func TestDeterminism(t *testing.T) {
	g := random(11, 50, 0.3)
	opt := Options{K: 2, Delta: 2, UseBounds: true, Extra: bounds.HIndex}
	a := mustMaxRFC(t, g, opt)
	b := mustMaxRFC(t, g, opt)
	if len(a.Clique) != len(b.Clique) {
		t.Fatal("sizes differ across runs")
	}
	for i := range a.Clique {
		if a.Clique[i] != b.Clique[i] {
			t.Fatal("vertex sets differ across runs")
		}
	}
	if a.Stats.Nodes != b.Stats.Nodes {
		t.Fatal("node counts differ across runs")
	}
}

// Reduction must never change the answer.
func TestReductionAnswerInvariance(t *testing.T) {
	f := func(seed uint64, n8, k8, d8 uint8) bool {
		n := int(n8%25) + 4
		k := int(k8%3) + 1
		delta := int(d8 % 3)
		g := random(seed, n, 0.4)
		with, err1 := MaxRFC(g, Options{K: k, Delta: delta})
		without, err2 := MaxRFC(g, Options{K: k, Delta: delta, SkipReduction: true})
		if err1 != nil || err2 != nil {
			return false
		}
		return with.Size() == without.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The result clique's vertices must be ids of the ORIGINAL graph even
// after two levels of induced-subgraph mapping.
func TestResultMapsToOriginalIDs(t *testing.T) {
	g := random(13, 60, 0.25)
	res := mustMaxRFC(t, g, Options{K: 2, Delta: 1})
	if res.Clique == nil {
		t.Skip("no clique in this instance")
	}
	if !g.IsFairClique(res.Clique, 2, 1) {
		t.Fatal("result invalid in original id space")
	}
}

func BenchmarkMaxRFCVariants(b *testing.B) {
	g := random(1, 300, 0.08)
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{K: 2, Delta: 2}},
		{"ub", Options{K: 2, Delta: 2, UseBounds: true, Extra: bounds.ColorfulPath}},
		{"ub+heur", Options{K: 2, Delta: 2, UseBounds: true, Extra: bounds.ColorfulPath, UseHeuristic: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MaxRFC(g, cfg.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The component-root check runs the whole component's Table II bound
// once, after the root prologue: with the per-node bound off and the
// incumbent already at that bound, the search branches the root alone
// and the check prunes it, for every bound configuration.
func TestRootCheckPrunesComponent(t *testing.T) {
	defer withoutNodeBound()()
	g := random(3, 75, 0.35)
	for _, opt := range sixBoundConfigs(2, 2) {
		s := &searcher{p: prepare(g), k: 2, delta: 2, opt: opt}
		if got := s.p.Components(); got != 1 {
			t.Fatalf("fixture has %d components, want 1", got)
		}
		s.bestSize.Store(s.p.comp(0).profile(opt.Extra).Bound(s.delta))
		s.searchComponent(0, 1, nil)
		if n, c, p := s.nodes.Load(), s.boundChecks.Load(), s.boundPrunes.Load(); n != 1 || c != 1 || p != 1 {
			t.Fatalf("%v: %d nodes, %d bound checks, %d bound prunes; want 1, 1, 1", opt.Extra, n, c, p)
		}
	}
}

// Serial search trees are deterministic, so their sizes are pinned: the
// search-cold nucleus at the perfbench cells under ubAD and ubAD+ubCD,
// plus one search without bounds. A change that alters a tree updates
// this table and reports old → new in CHANGES.md.
func TestSearchColdTreeSizes(t *testing.T) {
	p := prepare(searchColdNucleus())
	for _, tc := range []struct {
		k, delta              int
		useBounds             bool
		extra                 bounds.Extra
		nodes, checks, prunes int64
	}{
		{2, 1, true, bounds.None, 80003, 1, 0},
		{2, 2, true, bounds.None, 82761, 1, 0},
		{3, 2, true, bounds.None, 81887, 1, 0},
		{2, 4, true, bounds.None, 81652, 1, 0},
		{2, 1, true, bounds.ColorfulDegeneracy, 80003, 1, 0},
		{2, 2, true, bounds.ColorfulDegeneracy, 82761, 1, 0},
		{3, 2, true, bounds.ColorfulDegeneracy, 81887, 1, 0},
		{2, 4, true, bounds.ColorfulDegeneracy, 81652, 1, 0},
		{2, 2, false, bounds.None, 1732356, 0, 0},
	} {
		res, err := p.Search(Options{K: tc.k, Delta: tc.delta, UseBounds: tc.useBounds, Extra: tc.extra}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Nodes != tc.nodes || st.BoundChecks != tc.checks || st.BoundPrunes != tc.prunes {
			t.Errorf("(k, δ) = (%d, %d) UseBounds=%v %v: %d nodes, %d bound checks, %d bound prunes; "+
				"pinned %d, %d, %d. A change that alters a search tree updates this table and "+
				"reports old → new in CHANGES.md",
				tc.k, tc.delta, tc.useBounds, tc.extra, st.Nodes, st.BoundChecks, st.BoundPrunes,
				tc.nodes, tc.checks, tc.prunes)
		}
	}
}
