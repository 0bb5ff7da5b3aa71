package reduce

import (
	"slices"
	"testing"
	"testing/quick"

	"fairclique/internal/color"
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

// plantClique embeds a balanced clique of size 2k over the first 2k
// vertices of a random graph.
func plantClique(seed uint64, n, k int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for v := 0; v < 2*k; v++ {
		b.SetAttr(int32(v), graph.Attr(v%2))
	}
	for u := 0; u < 2*k; u++ {
		for v := u + 1; v < 2*k; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(0.08) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// bruteSupPeel recomputes the ColorfulSup fixpoint by full rescans.
func bruteSupPeel(g *graph.Graph, col *color.Coloring, k int32, enhanced bool) []bool {
	m := int(g.M())
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for e := 0; e < m; e++ {
			if !alive[e] {
				continue
			}
			u, v := g.Edge(int32(e))
			// Count colors among common neighbours connected by alive edges.
			seenA := map[int32]bool{}
			seenB := map[int32]bool{}
			g.CommonNeighbors(u, v, func(w int32) {
				euw, _ := g.EdgeID(u, w)
				evw, _ := g.EdgeID(v, w)
				if !alive[euw] || !alive[evw] {
					return
				}
				if g.Attr(w) == graph.AttrA {
					seenA[col.Of(w)] = true
				} else {
					seenB[col.Of(w)] = true
				}
			})
			ta, tb := thresholds(g.Attr(u), g.Attr(v), k)
			var bad bool
			if enhanced {
				var ca, cb, cm int32
				for c := range seenA {
					if seenB[c] {
						cm++
					} else {
						ca++
					}
				}
				for c := range seenB {
					if !seenA[c] {
						cb++
					}
				}
				aFirst := !(g.Attr(u) == graph.AttrB && g.Attr(v) == graph.AttrB)
				ga, gb := gsupValues(ca, cb, cm, ta, tb, aFirst)
				bad = ga < ta || gb < tb
			} else {
				bad = int32(len(seenA)) < ta || int32(len(seenB)) < tb
			}
			if bad {
				alive[e] = false
				changed = true
			}
		}
	}
	return alive
}

func TestThresholds(t *testing.T) {
	k := int32(4)
	if ta, tb := thresholds(graph.AttrA, graph.AttrA, k); ta != 2 || tb != 4 {
		t.Fatalf("(a,a): %d %d", ta, tb)
	}
	if ta, tb := thresholds(graph.AttrB, graph.AttrB, k); ta != 4 || tb != 2 {
		t.Fatalf("(b,b): %d %d", ta, tb)
	}
	if ta, tb := thresholds(graph.AttrA, graph.AttrB, k); ta != 3 || tb != 3 {
		t.Fatalf("(a,b): %d %d", ta, tb)
	}
	if ta, tb := thresholds(graph.AttrB, graph.AttrA, k); ta != 3 || tb != 3 {
		t.Fatalf("(b,a): %d %d", ta, tb)
	}
}

// The worked example of Fig. 2 / Example 3: ca=1, cb=2, cm=2, k=4,
// endpoints both attribute a. The paper computes gsupa=2, gsupb=3, so
// the edge fails the supb >= k requirement.
func TestGsupValuesPaperExample(t *testing.T) {
	ta, tb := thresholds(graph.AttrA, graph.AttrA, 4) // 2, 4
	ga, gb := gsupValues(1, 2, 2, ta, tb, true)
	if ga != 2 || gb != 3 {
		t.Fatalf("gsup = (%d,%d); paper says (2,3)", ga, gb)
	}
	if !(ga < ta || gb < tb) == true && gb >= tb {
		t.Fatal("edge should violate Lemma 4 condition (i)")
	}
}

func TestGsupValuesAllocation(t *testing.T) {
	cases := []struct {
		ca, cb, cm, ta, tb int32
		aFirst             bool
		ga, gb             int32
	}{
		{5, 5, 0, 3, 3, true, 5, 5},  // no mixed colors
		{0, 0, 6, 3, 3, true, 3, 3},  // all from the pool
		{0, 0, 4, 3, 3, true, 3, 1},  // pool exhausted on b
		{0, 0, 4, 3, 3, false, 1, 3}, // pool exhausted on a
		{2, 0, 1, 2, 4, true, 2, 1},  // a already satisfied, pool to b
		{1, 2, 2, 2, 4, true, 2, 3},  // paper example
		{10, 10, 5, 1, 1, false, 10, 10},
	}
	for _, tc := range cases {
		ga, gb := gsupValues(tc.ca, tc.cb, tc.cm, tc.ta, tc.tb, tc.aFirst)
		if ga != tc.ga || gb != tc.gb {
			t.Errorf("gsup(%d,%d,%d,t=%d/%d,aFirst=%v) = (%d,%d); want (%d,%d)",
				tc.ca, tc.cb, tc.cm, tc.ta, tc.tb, tc.aFirst, ga, gb, tc.ga, tc.gb)
		}
	}
}

// Feasibility equivalence: the greedy allocation passes both targets
// iff the deficit sum fits the mixed pool, regardless of order.
func TestGsupFeasibilityProperty(t *testing.T) {
	f := func(ca8, cb8, cm8, ta8, tb8 uint8, aFirst bool) bool {
		ca, cb, cm := int32(ca8%10), int32(cb8%10), int32(cm8%10)
		ta, tb := int32(ta8%10), int32(tb8%10)
		ga, gb := gsupValues(ca, cb, cm, ta, tb, aFirst)
		pass := ga >= ta && gb >= tb
		defA, defB := ta-ca, tb-cb
		if defA < 0 {
			defA = 0
		}
		if defB < 0 {
			defB = 0
		}
		feasible := defA+defB <= cm
		return pass == feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestColorfulSupMatchesBrute(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		for seed := uint64(0); seed < 6; seed++ {
			g := random(seed, 45, 0.3)
			col := color.Greedy(g)
			for _, k := range []int32{2, 3, 4} {
				got := ColorfulSup(g, col, k)
				want := bruteSupPeel(g, col, k, false)
				for e := range want {
					if got.EdgeAlive[e] != want[e] {
						t.Fatalf("seed %d k=%d edge %d: got %v want %v",
							seed, k, e, got.EdgeAlive[e], want[e])
					}
				}
			}
		}
	})
}

func TestEnColorfulSupMatchesBrute(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		for seed := uint64(0); seed < 6; seed++ {
			g := random(seed, 45, 0.3)
			col := color.Greedy(g)
			for _, k := range []int32{2, 3, 4} {
				got := EnColorfulSup(g, col, k)
				want := bruteSupPeel(g, col, k, true)
				for e := range want {
					if got.EdgeAlive[e] != want[e] {
						t.Fatalf("seed %d k=%d edge %d: got %v want %v",
							seed, k, e, got.EdgeAlive[e], want[e])
					}
				}
			}
		}
	})
}

// Safety (Lemma 3 / Lemma 4): a planted balanced 2k-clique survives
// both reductions entirely.
func TestReductionsPreservePlantedClique(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		k := 3
		g := plantClique(seed, 40, k)
		col := color.Greedy(g)
		for name, r := range map[string]*Result{
			"ColorfulSup":    ColorfulSup(g, col, int32(k)),
			"EnColorfulSup":  EnColorfulSup(g, col, int32(k)),
			"EnColorfulCore": EnColorfulCore(g, col, int32(k)-1),
		} {
			for u := 0; u < 2*k; u++ {
				if !r.VertexAlive[u] {
					t.Fatalf("seed %d: %s removed clique vertex %d", seed, name, u)
				}
				for v := u + 1; v < 2*k; v++ {
					e, ok := g.EdgeID(int32(u), int32(v))
					if !ok {
						t.Fatal("clique edge missing")
					}
					if !r.EdgeAlive[e] {
						t.Fatalf("seed %d: %s removed clique edge (%d,%d)", seed, name, u, v)
					}
				}
			}
		}
	}
}

// EnColorfulSup is at least as aggressive as ColorfulSup (gsup <= sup
// colorwise, and peeling is monotone).
func TestEnhancedAtLeastAsStrong(t *testing.T) {
	f := func(seed uint64, n8, k8 uint8) bool {
		n := int(n8%40) + 5
		k := int32(k8%3) + 2
		g := random(seed, n, 0.3)
		col := color.Greedy(g)
		plain := ColorfulSup(g, col, k)
		enh := EnColorfulSup(g, col, k)
		for e := range plain.EdgeAlive {
			if enh.EdgeAlive[e] && !plain.EdgeAlive[e] {
				return false
			}
		}
		return enh.EdgesLeft <= plain.EdgesLeft
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResultCounts(t *testing.T) {
	g := plantClique(1, 30, 3)
	col := color.Greedy(g)
	r := ColorfulSup(g, col, 3)
	var edges, verts int32
	for _, ok := range r.EdgeAlive {
		if ok {
			edges++
		}
	}
	for _, ok := range r.VertexAlive {
		if ok {
			verts++
		}
	}
	if edges != r.EdgesLeft || verts != r.VerticesLeft {
		t.Fatalf("counts %d/%d vs masks %d/%d", r.EdgesLeft, r.VerticesLeft, edges, verts)
	}
	sub := r.Materialize(g)
	if sub.G.N() != r.VerticesLeft || sub.G.M() != r.EdgesLeft {
		t.Fatalf("materialized %d/%d; want %d/%d", sub.G.N(), sub.G.M(), r.VerticesLeft, r.EdgesLeft)
	}
}

func TestColorfulSupEmptyAndTiny(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	col := color.Greedy(g)
	r := ColorfulSup(g, col, 2)
	if r.EdgesLeft != 0 || r.VerticesLeft != 0 {
		t.Fatal("empty graph should reduce to nothing")
	}
	// A lone edge cannot hold a fair clique with k >= 1 (needs common
	// neighbours), so it is peeled.
	b := graph.NewBuilder(2)
	b.SetAttr(1, graph.AttrB)
	b.AddEdge(0, 1)
	g = b.Build()
	col = color.Greedy(g)
	r = ColorfulSup(g, col, 2)
	if r.EdgesLeft != 0 {
		t.Fatal("isolated edge should be peeled at k=2")
	}
}

func TestPipeline(t *testing.T) {
	k := 3
	g := plantClique(7, 60, k)
	sub, stats := Pipeline(g, int32(k))
	if len(stats) != 4 {
		t.Fatalf("%d stages", len(stats))
	}
	if stats[0].Name != "DegeneracyPrune" {
		t.Fatalf("stage 0 = %q, want the degeneracy pre-prune", stats[0].Name)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Edges > stats[i-1].Edges || stats[i].Vertices > stats[i-1].Vertices {
			t.Fatalf("stage %d grew: %+v", i, stats)
		}
	}
	if sub.G.N() < int32(2*k) {
		t.Fatalf("pipeline destroyed the planted clique: %d vertices left", sub.G.N())
	}
	// The planted clique (original vertices 0..2k-1) must survive and
	// map back correctly.
	found := 0
	for _, orig := range sub.ToParent {
		if orig < int32(2*k) {
			found++
		}
	}
	if found != 2*k {
		t.Fatalf("only %d of %d clique vertices survive the pipeline", found, 2*k)
	}
	// Attributes preserved through the mapping.
	for sv, orig := range sub.ToParent {
		if sub.G.Attr(int32(sv)) != g.Attr(orig) {
			t.Fatalf("attribute mismatch at subvertex %d", sv)
		}
	}
	if got := Stages(g, int32(k)); len(got) != 3 {
		t.Fatalf("Stages returned %d entries", len(got))
	}
}

// threeComponents is a fixture for k = 1 with one component per fate:
// an all-a triangle {0, 1, 2}, which EnColorfulCore keeps at threshold
// 0 but whose colour classes price it out; a path 3(a)–4(a)–5(b), which
// passes the price test and loses the a–a edge to ColorfulSup (no
// b-vertex shares it); and a triangle 6(a), 7(b), 8(b), which survives
// every stage.
func threeComponents() *graph.Graph {
	a, b := graph.AttrA, graph.AttrB
	return graph.FromEdges([]graph.Attr{a, a, a, a, a, b, a, b, b},
		[][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {6, 8}, {7, 8}})
}

// A component that fails the price test is gone from the EnColorfulCore
// row on, though EnColorfulCore itself would keep it; the others run
// the stages as before.
func TestPipelinePricesComponents(t *testing.T) {
	sub, stats := Pipeline(threeComponents(), 1)
	want := []StageStats{
		{"DegeneracyPrune", 9, 8},
		{"EnColorfulCore", 6, 5}, // the all-a triangle is priced out
		{"ColorfulSup", 5, 4},    // the path loses 3–4 and vertex 3
		{"EnColorfulSup", 5, 4},
	}
	if !slices.Equal(stats, want) {
		t.Fatalf("stages %v, want %v", stats, want)
	}
	if want := []int32{4, 5, 6, 7, 8}; !slices.Equal(sub.ToParent, want) {
		t.Fatalf("kept %v, want %v", sub.ToParent, want)
	}
	var edges [][2]int32
	for e := int32(0); e < sub.G.M(); e++ {
		u, v := sub.G.Edge(e)
		edges = append(edges, [2]int32{sub.ToParent[u], sub.ToParent[v]})
	}
	if want := [][2]int32{{4, 5}, {6, 7}, {6, 8}, {7, 8}}; !slices.Equal(edges, want) {
		t.Fatalf("kept edges %v, want %v", edges, want)
	}
}

func TestPipelineInfeasibleK(t *testing.T) {
	// k larger than any clique: everything should be peeled.
	g := random(3, 40, 0.15)
	sub, _ := Pipeline(g, 10)
	if sub.G.N() != 0 || sub.G.M() != 0 {
		t.Fatalf("expected empty graph, got n=%d m=%d", sub.G.N(), sub.G.M())
	}
}
