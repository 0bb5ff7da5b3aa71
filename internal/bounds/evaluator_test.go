package bounds

import (
	"testing"
	"testing/quick"

	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/reduce"
	"fairclique/internal/rng"
)

// The scratch evaluator must agree exactly with the reference
// Evaluate on the materialized induced subgraph, for every extra bound
// and every (R, C) split: the engine swaps one for the other on the
// hot path, so any divergence is a soundness bug. Besides small views,
// the check runs at the sizes the search-cold workload evaluates
// (up to ~250 vertices, dozens of colors), where each vertex's colorful
// counters span many keys.
func TestEvaluatorMatchesInducedEvaluate(t *testing.T) {
	var ev Evaluator // shared across iterations to exercise scratch reuse
	for _, size := range []struct {
		name       string
		minN, maxN int
		maxP       float64
		count      int
	}{
		{"small", 1, 40, 0.84, 250},
		{"searchcold", 41, 250, 0.6, 40},
	} {
		t.Run(size.name, func(t *testing.T) {
			f := func(seed uint64, n8, p8, d8, split8 uint8) bool {
				n := size.minN + int(n8)%(size.maxN-size.minN+1)
				p := 0.15 + float64(p8)/255*(size.maxP-0.15)
				delta := int32(d8 % 4)
				g := random(seed, n, p)

				// Random disjoint split of a random subset into (R, C).
				r := rng.New(seed + 999)
				var rr, cc []int32
				for v := int32(0); v < g.N(); v++ {
					switch r.Intn(4) {
					case 0:
						if len(rr) < int(split8%5) {
							rr = append(rr, v)
						} else {
							cc = append(cc, v)
						}
					case 1, 2:
						cc = append(cc, v)
					}
				}
				vs := append(append([]int32(nil), rr...), cc...)
				if len(vs) == 0 {
					return true
				}
				induced := graph.Induce(g, vs).G
				for _, extra := range Extras() {
					want := Evaluate(induced, delta, extra)
					got := ev.Evaluate(g, rr, cc, delta, extra)
					if got != want {
						t.Logf("seed=%d n=%d p=%.2f δ=%d extra=%v |R|=%d |C|=%d: evaluator %d, reference %d",
							seed, n, p, delta, extra, len(rr), len(cc), got, want)
						return false
					}
				}
				// On large views the advanced group's minimum usually
				// hides the colorful degeneracy, so the peel over the
				// per-edge counters is also compared on its own.
				if got, want := ev.colorfulDegeneracyOfLastView(), colorful.Degeneracy(induced, color.Greedy(induced)); got != want {
					t.Logf("seed=%d n=%d p=%.2f |R|=%d |C|=%d: view colorful degeneracy %d, reference %d",
						seed, n, p, len(rr), len(cc), got, want)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: size.count}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// colorfulDegeneracyOfLastView recolors the view of the last Evaluate
// call and returns its colorful degeneracy.
func (e *Evaluator) colorfulDegeneracyOfLastView() int32 {
	n := e.sc.N()
	return e.viewColorfulDegeneracy(n, e.greedyColor(n))
}

// The evaluator on the full vertex set equals Evaluate on the graph
// itself (identity view), including the empty graph.
func TestEvaluatorIdentityView(t *testing.T) {
	var ev Evaluator
	if got := ev.Evaluate(graph.NewBuilder(0).Build(), nil, nil, 1, ColorfulPath); got != 0 {
		t.Fatalf("empty view bound = %d, want 0", got)
	}
	for seed := uint64(0); seed < 8; seed++ {
		g := random(seed, 35, 0.3)
		ids := make([]int32, g.N())
		for i := range ids {
			ids[i] = int32(i)
		}
		for _, extra := range Extras() {
			want := Evaluate(g, 2, extra)
			if got := ev.Evaluate(g, nil, ids, 2, extra); got != want {
				t.Fatalf("seed %d extra %v: identity view %d, Evaluate %d", seed, extra, got, want)
			}
		}
	}
}

// Steady-state evaluation must not allocate: the searcher calls this
// once per shallow branch node.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	g := random(3, 120, 0.2)
	ids := make([]int32, g.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	rr, cc := ids[:4], ids[4:]
	var ev Evaluator
	for _, extra := range Extras() {
		ev.Evaluate(g, rr, cc, 2, extra) // warm the scratch
	}
	for _, extra := range Extras() {
		extra := extra
		avg := testing.AllocsPerRun(50, func() {
			ev.Evaluate(g, rr, cc, 2, extra)
		})
		if avg != 0 {
			t.Errorf("extra %v: %.1f allocs per evaluation, want 0", extra, avg)
		}
	}
}

// BenchmarkEvaluatorView times one evaluation per extra bound on a
// sparse 300-vertex identity view ("random300") and on a depth-1 view
// of the search-cold nucleus ("searchcold"): R = {u} for the nucleus's
// first attribute-a vertex u, C = u's root-branch candidates (its
// neighbours of the other attribute or with a larger id) — the shape
// of the ~110 checks a search-cold op makes.
func BenchmarkEvaluatorView(b *testing.B) {
	g := random(1, 300, 0.1)
	ids := make([]int32, g.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	nucleus, r, c := searchColdView()
	views := []struct {
		name string
		g    *graph.Graph
		r, c []int32
	}{
		{"random300", g, nil, ids},
		{"searchcold", nucleus, r, c},
	}
	var ev Evaluator
	for _, v := range views {
		for _, extra := range Extras() {
			b.Run(v.name+"/"+extra.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ev.Evaluate(v.g, v.r, v.c, 2, extra)
				}
			})
		}
	}
}

// searchColdView returns the search-cold nucleus (the k=2 PipelineN
// survivor of gen.BigComponent(1, 230, 0.5, graph.ChunkBits+1024)) and
// the (R, C) of its first attribute-a root branch.
func searchColdView() (*graph.Graph, []int32, []int32) {
	sub, _ := reduce.PipelineN(gen.BigComponent(1, 230, 0.5, graph.ChunkBits+1024), 2, 1)
	g := sub.G
	u := int32(0)
	for g.Attr(u) != graph.AttrA {
		u++
	}
	var c []int32
	for _, v := range g.Neighbors(u) {
		if g.Attr(v) != graph.AttrA || v > u {
			c = append(c, v)
		}
	}
	return g, []int32{u}, c
}
