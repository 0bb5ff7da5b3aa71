package reduce

import (
	"sync"
	"sync/atomic"

	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
)

// StageStats records the size of the graph after one reduction stage,
// feeding the Fig. 4 / Fig. 5 experiment.
type StageStats struct {
	Name     string
	Vertices int32
	Edges    int32
}

// Pipeline runs the full reduction chain serially; see PipelineN.
func Pipeline(g *graph.Graph, k int32) (*graph.Subgraph, []StageStats) {
	return PipelineN(g, k, 1)
}

// PipelineN runs the reduction chain with up to workers components in
// flight at once:
//
//	stage 0  DegeneracyPrune — classic (2k-1)-core peeling
//	         (attribute-oblivious, no coloring; kcore.FairCliquePrune)
//	stage 1  EnColorfulCore with threshold k-1 (Lemma 2)
//	stage 2  ColorfulSup at k (Lemma 3)
//	stage 3  EnColorfulSup at k (Lemma 4)
//
// The cheap degeneracy pre-prune runs first on the whole graph so the
// expensive colorful machinery only ever sees its survivors. The unit
// of work after it is the vertex set of one connected component of the
// survivors (graph.Components): coloring and peeling are
// component-local, so the sets are fanned across a bounded worker set.
// The worker that claims a set prices it before it builds anything:
//
//   - It colours the set greedily in place on g (color.GreedyOn). The
//     set ascends and holds every alive neighbour of its members, so
//     each member's alive degree is its degree in the set's induced
//     graph and ids order the members as that graph's ids do: the
//     colours are exactly color.Greedy of graph.Induce(g, set).G.
//   - It counts the set's a-only, b-only and mixed colour classes
//     (ca, cb, cm) and drops the set unless EDValue(ca, cb, cm) >= k.
//     The vertices of a clique sit in distinct classes of any proper
//     colouring, so a fair clique with both attribute counts >= k
//     needs k classes that hold an a-vertex and k others that hold a
//     b-vertex. By Hall's condition such classes exist exactly when
//     ca+cm >= k, cb+cm >= k and ca+cb+cm >= 2k, which is
//     EDValue(ca, cb, cm) >= k (the colour-class bound ubAD with δ left
//     out). A dropped set holds no such clique, and its vertices count
//     as removed by the EnColorfulCore row.
//   - Only a set that passes is induced (graph.InduceComponent) and
//     reduced by runStages, which starts from that colouring: the
//     stages see exactly the graph and colouring a Greedy of the
//     induced component would give them.
//
// Every relative fair clique with both attribute counts >= k survives
// all stages.
//
// The workers share two tables over g's ids, the colours and the
// component-local ids. Each worker writes them only at its own set's
// members and reads them only there and at dead vertices, which no
// worker writes: a member's alive neighbours are members of its set.
//
// Determinism: each component's reduction is a sequential computation
// on an isolated induced subgraph, and results are merged in component
// order into global alive masks, so the returned subgraph is
// bit-identical for every workers value.
//
// The returned Subgraph maps the final vertices back to g; stats holds
// the four per-stage sizes (colorful rows are summed over components).
func PipelineN(g *graph.Graph, k int32, workers int) (*graph.Subgraph, []StageStats) {
	stats := []StageStats{
		{Name: "DegeneracyPrune"},
		{Name: "EnColorfulCore"},
		{Name: "ColorfulSup"},
		{Name: "EnColorfulSup"},
	}

	alive, pst := kcore.FairCliquePrune(g, k)
	stats[0].Vertices, stats[0].Edges = pst.Survivors, pst.SurvivorEdges
	comps := graph.Components(g, alive)
	colors := make([]int32, g.N())
	for v := range colors {
		colors[v] = -1 // dead vertices keep it: GreedyOn reads their colour as none
	}
	local := make([]int32, g.N())

	type compOut struct {
		sub    *graph.Subgraph // survivors, ToParent into g; nil when priced out
		stages [3]StageStats
	}
	outs := make([]compOut, len(comps))
	run := func(ci int) {
		vs := comps[ci]
		col := color.GreedyOn(g, vs, alive, colors)
		if colorful.EDValue(colorful.ClassCounts(g, vs, col)) < k {
			return
		}
		comp := graph.InduceComponent(g, vs, alive, local)
		compCol := &color.Coloring{Colors: make([]int32, len(vs)), Num: col.Num}
		for i, v := range vs {
			compCol.Colors[i] = colors[v]
		}
		sub, sst := runStages(comp.G, compCol, k)
		sub.ToParent = chain(vs, sub.ToParent)
		outs[ci] = compOut{sub, sst}
	}
	if workers <= 1 || len(comps) <= 1 {
		for ci := range comps {
			run(ci)
		}
	} else {
		if workers > len(comps) {
			workers = len(comps)
		}
		// A worker claims a chunk of consecutive sets at a time. Sets
		// next to each other in the list tend to hold neighbouring ids,
		// whose entries in the shared colour table share cache lines;
		// claimed one by one, they kept two workers writing the same
		// lines. About eight chunks per worker keep the load balanced.
		chunk := max(1, len(comps)/(8*workers))
		var next int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
					if lo >= len(comps) {
						return
					}
					for ci := lo; ci < min(lo+chunk, len(comps)); ci++ {
						run(ci)
					}
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic merge: mark survivors on the original graph's
	// masks in component order, then induce once.
	vAlive := make([]bool, g.N())
	eAlive := make([]bool, g.M())
	for _, o := range outs {
		if o.sub == nil {
			continue
		}
		markSurvivors(g, vAlive, eAlive, o.sub, nil)
		for s := 0; s < 3; s++ {
			stats[s+1].Vertices += o.stages[s].Vertices
			stats[s+1].Edges += o.stages[s].Edges
		}
	}
	return graph.InduceAlive(g, vAlive, eAlive), stats
}

// runStages runs the three colorful reduction stages of Algorithm 2
// lines 1-3 on one (component) graph g, coloured by col: EnColorfulCore
// with threshold k-1, then ColorfulSup, then EnColorfulSup at k.
//
// PipelineN runs it only on a component whose colour classes can hold
// a fair clique with both attribute counts >= k (EDValue of its a-only,
// b-only and mixed classes >= k, Hall's condition for k a-classes and k
// disjoint b-classes), and hands it the in-place colouring it priced
// the component with. That colouring is color.Greedy(g): the component
// is closed under alive adjacency and ascends, so each member's alive
// degree is its degree in g and ids order alike, and greedy's order and
// smallest-free-colour rule give the same colours. The first stage thus
// sees exactly the inputs a fresh Greedy would give it.
//
// A stage that removes a vertex or an edge hands the next stage its
// survivors, re-induced and re-coloured, which only sharpens the next
// stage. A stage that keeps every vertex and edge hands on its own
// input graph and colouring unchanged: InduceAlive with everything
// alive rebuilds the same CSR, and color.Greedy is deterministic on it,
// so the rebuild would give the next stage exactly the inputs it
// already has.
func runStages(g *graph.Graph, col *color.Coloring, k int32) (*graph.Subgraph, [3]StageStats) {
	var stats [3]StageStats
	sub := &graph.Subgraph{G: g, ToParent: make([]int32, g.N())}
	for v := range sub.ToParent {
		sub.ToParent[v] = int32(v)
	}
	for i, st := range []struct {
		name string
		run  func(*graph.Graph, *color.Coloring, int32) *Result
		k    int32
	}{
		{"EnColorfulCore", EnColorfulCore, k - 1},
		{"ColorfulSup", ColorfulSup, k},
		{"EnColorfulSup", EnColorfulSup, k},
	} {
		if col == nil {
			col = color.Greedy(sub.G)
		}
		r := st.run(sub.G, col, st.k)
		stats[i] = StageStats{st.name, r.VerticesLeft, r.EdgesLeft}
		if r.VerticesLeft < sub.G.N() || r.EdgesLeft < sub.G.M() {
			next := r.Materialize(sub.G)
			next.ToParent = chain(sub.ToParent, next.ToParent)
			sub, col = next, nil
		}
	}
	return sub, stats
}

// chain composes two vertex mappings: outer maps an inner-subgraph id
// to a mid-graph id, and parent maps mid ids to original ids.
func chain(parent, outer []int32) []int32 {
	out := make([]int32, len(outer))
	for i, v := range outer {
		out[i] = parent[v]
	}
	return out
}

// Stages runs the reduction chain and returns the three colorful stage
// sizes (the way Fig. 4 reports them: EnColorfulCore alone, then the
// cumulative ColorfulSup, then cumulative EnColorfulSup). The
// degeneracy pre-prune row is dropped so the figure keeps the paper's
// three-technique shape.
func Stages(g *graph.Graph, k int32) []StageStats {
	_, stats := Pipeline(g, k)
	return stats[1:]
}
