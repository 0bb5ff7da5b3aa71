package reduce

import (
	"slices"

	"fairclique/internal/graph"
	"fairclique/internal/kcore"
)

// This file implements the dynamic half of the reduction: when a
// session's graph mutates, each per-k reduced subgraph is patched with
// component-scoped work instead of being rebuilt. The invariant a
// patched subgraph must keep is only *validity* — it contains every
// fair clique with both attribute counts >= k of the new graph,
// edge-complete — not minimality, which is what makes a cheap local
// patch sound:
//
//   - The reduction pipeline is component-local: peeling decisions in
//     one connected component never read state from another. A
//     component none of whose vertices is a delta endpoint is still
//     exactly what a fresh pipeline would keep of it.
//   - A fair clique of the new graph either uses no inserted edge —
//     then it was a fair clique of the old graph and lives inside one
//     old component — or it uses an inserted edge (u, v) and is
//     contained in {u, v} ∪ (N(u) ∩ N(v)) of the new graph.
//   - Deletions only destroy cliques, never create them.

// Patch derives the reduction at k of newG from sub, the reduction at k
// of the graph the delta described by info was applied to. sub.ToParent
// must ascend (every reduction the pipeline, a chained build or Patch
// returns does). insRegion is the sorted union of the inserted edges'
// endpoints and common neighbours in newG — k-independent, so callers
// compute it once per delta. sub is not modified; in-flight searches
// may keep reading it. Patch has three outcomes:
//
//   - It returns sub itself when no vertex of sub is a delta endpoint
//     and the pipeline keeps nothing of insRegion, or when a
//     delete-only delta removes no edge of sub.
//   - For any other delete-only delta it drops the deleted edges and
//     re-peels their endpoints at the fairness floor 2k−1 (a vertex of
//     a fair clique with both counts >= k keeps 2k−1 clique
//     neighbours), with no pipeline run; see repeel.
//   - Otherwise it re-runs the pipeline on the touched components'
//     survivors plus insRegion, induced from newG, and merges the
//     result with the clean components' vertices and edges. Edges, not
//     just vertices, carry over: the pipeline peels edges too, so
//     re-inducing clean components from newG would restore peeled ones.
func Patch(sub *graph.Subgraph, newG *graph.Graph, info *graph.ApplyInfo, insRegion []int32, k int32, workers int) *graph.Subgraph {
	if len(info.Inserted) == 0 {
		return repeel(sub, info, k)
	}
	dirty, dirtyIDs := touchedComponents(sub, info)
	region := slices.Clone(insRegion)
	for _, v := range dirtyIDs {
		region = append(region, sub.ToParent[v])
	}
	slices.Sort(region)
	region = slices.Compact(region)
	fresh, _ := PipelineN(graph.Induce(newG, region).G, k, workers)
	if dirty == nil && fresh.G.N() == 0 {
		return sub // the insertions made no clique the reduction keeps
	}
	fresh.ToParent = chain(region, fresh.ToParent)
	vAlive := make([]bool, newG.N())
	eAlive := make([]bool, newG.M())
	markSurvivors(newG, vAlive, eAlive, sub, dirty)
	markSurvivors(newG, vAlive, eAlive, fresh, nil)
	return graph.InduceAlive(newG, vAlive, eAlive)
}

// touchedComponents marks the connected components of sub.G that hold a
// delta endpoint by flooding from the endpoints, so untouched
// components are never visited. It returns the mask (nil when no
// endpoint lies in sub) and the marked sub ids.
func touchedComponents(sub *graph.Subgraph, info *graph.ApplyInfo) ([]bool, []int32) {
	var dirty []bool
	var stack []int32
	for _, v := range info.Endpoints {
		i, ok := slices.BinarySearch(sub.ToParent, v)
		if !ok {
			continue
		}
		if dirty == nil {
			dirty = make([]bool, sub.G.N())
		}
		if !dirty[i] {
			dirty[i] = true
			stack = append(stack, int32(i))
		}
	}
	for head := 0; head < len(stack); head++ {
		for _, w := range sub.G.Neighbors(stack[head]) {
			if !dirty[w] {
				dirty[w] = true
				stack = append(stack, w)
			}
		}
	}
	return dirty, stack
}

// repeel applies a delete-only delta to sub. Every reduction that
// PipelineN, a chained build or Patch returns gives each vertex at least
// 2k−1 neighbours, the fairness floor (kcore.FairnessFloor): a kept edge
// (u, v) passes Lemma 3 or 4 on triangles whose edges are all kept, so
// u and v share 2k−2 kept common neighbours, and a re-peel keeps the
// floor itself. Deleting edges lowers only their endpoints' degrees, so
// only those can fall below the floor. The peel therefore starts from
// them and runs in place on sub.G under the edge mask, and the result
// is induced once: the (2k−1)-core of sub.G without the deleted edges.
// Components the delta does not touch stay whole without being walked.
func repeel(sub *graph.Subgraph, info *graph.ApplyInfo, k int32) *graph.Subgraph {
	g := sub.G
	eAlive := make([]bool, g.M())
	for e := range eAlive {
		eAlive[e] = true
	}
	deg := make([]int32, g.N())
	var stack []int32
	for _, d := range info.Deleted {
		u, okU := slices.BinarySearch(sub.ToParent, d[0])
		v, okV := slices.BinarySearch(sub.ToParent, d[1])
		if !okU || !okV {
			continue
		}
		if e, ok := g.EdgeID(int32(u), int32(v)); ok && eAlive[e] {
			eAlive[e] = false
			deg[u]--
			deg[v]--
			stack = append(stack, int32(u), int32(v))
		}
	}
	if len(stack) == 0 {
		return sub // the deleted edges were already peeled out of sub
	}
	vAlive := make([]bool, g.N())
	for v := range vAlive {
		vAlive[v] = true
		deg[v] += g.Deg(int32(v))
	}
	floor := kcore.FairnessFloor(k)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !vAlive[v] || deg[v] >= floor {
			continue
		}
		vAlive[v] = false
		eids := g.IncidentEdges(v)
		for i, w := range g.Neighbors(v) {
			if vAlive[w] && eAlive[eids[i]] {
				if deg[w]--; deg[w] < floor {
					stack = append(stack, w)
				}
			}
		}
	}
	out := graph.InduceAlive(g, vAlive, eAlive)
	out.ToParent = chain(sub.ToParent, out.ToParent)
	return out
}

// markSurvivors records sub's vertices and edges (sub.ToParent in g's
// ids) on g's survivor masks, leaving out the vertices skip marks and
// their edges (skip may be nil). PipelineN merges its component results
// this way and Patch its clean components with the re-reduced region;
// each then induces the union once with graph.InduceAlive.
func markSurvivors(g *graph.Graph, vAlive, eAlive []bool, sub *graph.Subgraph, skip []bool) {
	for i, v := range sub.ToParent {
		if skip == nil || !skip[i] {
			vAlive[v] = true
		}
	}
	for e := int32(0); e < sub.G.M(); e++ {
		u, v := sub.G.Edge(e)
		if skip != nil && (skip[u] || skip[v]) {
			continue
		}
		if eid, ok := g.EdgeID(sub.ToParent[u], sub.ToParent[v]); ok {
			eAlive[eid] = true
		}
	}
}
