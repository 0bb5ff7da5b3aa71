package reduce

import (
	"sync"
	"sync/atomic"

	"fairclique/internal/color"
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
// expensive colorful machinery only ever sees its survivors. The
// survivors are split straight from g into component graphs
// (graph.AliveComponents), and the colorful stages run independently
// per component (coloring and peeling are component-local), fanned
// across a bounded worker set. Every relative fair clique with both
// attribute counts >= k survives all stages.
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
	comps := graph.AliveComponents(g, alive)

	type compOut struct {
		sub    *graph.Subgraph // survivors, ToParent into g
		stages [3]StageStats
	}
	outs := make([]compOut, len(comps))
	run := func(ci int) {
		sub, sst := runStages(comps[ci].G, k)
		sub.ToParent = chain(comps[ci].ToParent, sub.ToParent)
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
		var next int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					ci := int(atomic.AddInt64(&next, 1)) - 1
					if ci >= len(comps) {
						return
					}
					run(ci)
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic merge: mark survivors on the original graph's
	// masks in component order, then induce once.
	vAlive := make([]bool, g.N())
	eAlive := make([]bool, g.M())
	for ci := range comps {
		o := outs[ci]
		markSurvivors(g, vAlive, eAlive, o.sub, nil)
		for s := 0; s < 3; s++ {
			stats[s+1].Vertices += o.stages[s].Vertices
			stats[s+1].Edges += o.stages[s].Edges
		}
	}
	return graph.InduceAlive(g, vAlive, eAlive), stats
}

// runStages runs the three colorful reduction stages of Algorithm 2
// lines 1-3 on one (component) graph: EnColorfulCore with threshold
// k-1, then ColorfulSup, then EnColorfulSup at k. Each stage
// re-induces and re-colors the shrunken graph, which only sharpens the
// next stage.
func runStages(g *graph.Graph, k int32) (*graph.Subgraph, [3]StageStats) {
	var stats [3]StageStats

	col := color.Greedy(g)
	r := EnColorfulCore(g, col, k-1)
	sub := r.Materialize(g)
	stats[0] = StageStats{"EnColorfulCore", r.VerticesLeft, r.EdgesLeft}

	col = color.Greedy(sub.G)
	r = ColorfulSup(sub.G, col, k)
	sub2 := r.Materialize(sub.G)
	sub2.ToParent = chain(sub.ToParent, sub2.ToParent)
	stats[1] = StageStats{"ColorfulSup", r.VerticesLeft, r.EdgesLeft}

	col = color.Greedy(sub2.G)
	r = EnColorfulSup(sub2.G, col, k)
	sub3 := r.Materialize(sub2.G)
	sub3.ToParent = chain(sub2.ToParent, sub3.ToParent)
	stats[2] = StageStats{"EnColorfulSup", r.VerticesLeft, r.EdgesLeft}

	return sub3, stats
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
