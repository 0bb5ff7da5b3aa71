package kcore

import "fairclique/internal/graph"

// FairnessFloor is the classic-core threshold implied by the fairness
// size constraint: a relative fair clique with both attribute counts
// >= k has at least 2k vertices, so each of its members has degree
// >= 2k-1 inside the clique and therefore core number >= 2k-1. The
// floor is clamped at 1 so k <= 0 degenerates to "has an edge".
func FairnessFloor(k int32) int32 {
	if f := 2*k - 1; f > 1 {
		return f
	}
	return 1
}

// PruneStats reports one FairCliquePrune pass.
type PruneStats struct {
	// Threshold is the classic-core floor applied (FairnessFloor(k)).
	Threshold int32
	// Survivors and SurvivorEdges are the sizes of the surviving
	// subgraph.
	Survivors     int32
	SurvivorEdges int32
}

// FairCliquePrune returns the alive mask of the FairnessFloor(k)-core:
// the vertices that can possibly belong to a fair clique with both
// attribute counts >= k. It is a cheap attribute-oblivious pass (the
// threshold peel of KCore, O(|V|+|E|), no coloring) meant to run ahead
// of the colorful-core pipeline so the expensive colorful machinery
// only ever sees the survivor subgraph — the Pattabiraman et al.
// massive-sparse-graph recipe.
//
// Exactness: the colorful (k-1)-core is contained in the classic
// (2k-1)-core (a vertex of a fair clique has 2k-1 clique neighbors,
// all inside any valid reduction), so discarding below the floor never
// removes a vertex the colorful stages would have kept.
func FairCliquePrune(g *graph.Graph, k int32) ([]bool, PruneStats) {
	t := FairnessFloor(k)
	alive, deg := peel(g, t)
	st := PruneStats{Threshold: t}
	var degSum int64
	for v, ok := range alive {
		if ok {
			st.Survivors++
			degSum += int64(deg[v])
		}
	}
	st.SurvivorEdges = int32(degSum / 2)
	return alive, st
}
