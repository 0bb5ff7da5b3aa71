// Package reduce implements the paper's novel graph reduction
// techniques: the colorful-support edge peeling ColorfulSup
// (Definition 6, Lemma 3, Algorithm 1) and its enhanced variant
// EnColorfulSup (Definition 7, Lemma 4). Both are truss-decomposition
// style algorithms: they iteratively delete edges whose (enhanced)
// colorful support cannot occur inside a relative fair clique of the
// requested size, propagating support decrements over triangles. Both
// run one body per path: supDense on bitset rows for small graphs, and
// supMerge on sorted lists with a colorful.Tally of one row per edge,
// which keeps the mixed count only for EnColorfulSup.
package reduce

import (
	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/graph"
)

// Result reports which edges and vertices survive a reduction.
type Result struct {
	// EdgeAlive[e] is false once edge e was peeled.
	EdgeAlive []bool
	// VertexAlive[v] is true iff v retains at least one alive edge.
	VertexAlive []bool
	// VerticesLeft and EdgesLeft are the surviving counts.
	VerticesLeft, EdgesLeft int32
}

// Materialize induces the surviving subgraph with its vertex mapping.
func (r *Result) Materialize(g *graph.Graph) *graph.Subgraph {
	return graph.InduceAlive(g, r.VertexAlive, r.EdgeAlive)
}

// finish derives the vertex mask and counts from the edge mask.
func finish(g *graph.Graph, edgeAlive []bool) *Result {
	r := &Result{
		EdgeAlive:   edgeAlive,
		VertexAlive: make([]bool, g.N()),
	}
	for e := int32(0); e < g.M(); e++ {
		if edgeAlive[e] {
			r.EdgesLeft++
			u, v := g.Edge(e)
			r.VertexAlive[u] = true
			r.VertexAlive[v] = true
		}
	}
	for _, ok := range r.VertexAlive {
		if ok {
			r.VerticesLeft++
		}
	}
	return r
}

// thresholds returns the per-attribute support requirements for an edge
// whose endpoints carry attributes au and av, per Lemma 3: an edge
// inside a fair clique with both attribute counts >= k must have at
// least k-2 same-attribute common colors when both endpoints share that
// attribute, k-1 each for mixed edges, and k for the attribute absent
// from the endpoints.
func thresholds(au, av graph.Attr, k int32) (ta, tb int32) {
	switch {
	case au == graph.AttrA && av == graph.AttrA:
		return k - 2, k
	case au == graph.AttrB && av == graph.AttrB:
		return k, k - 2
	default:
		return k - 1, k - 1
	}
}

// ColorfulSup runs Algorithm 1: it peels every edge whose colorful
// support violates Lemma 3 for the size constraint k and returns the
// surviving edge/vertex masks. Any relative fair clique of G with both
// attribute counts >= k survives intact.
//
// Graphs of at most denseMaxVertices (graph.ChunkBits) vertices run on
// dense adjacency rows (supDense): n²/8 bytes, O(n/64) words plus one
// step per common neighbour for each edge's support. Larger graphs
// merge sorted adjacency lists (supMerge).
func ColorfulSup(g *graph.Graph, col *color.Coloring, k int32) *Result {
	if g.N() <= denseMaxVertices {
		return supDense(g, col, k, false)
	}
	return supMerge(g, col, k, false)
}

// gsupValues computes the enhanced colorful support pair of an edge
// whose common-neighbour colors split into ca exclusive-a, cb
// exclusive-b and cm mixed colors, against targets (ta, tb), following
// the greedy allocation of Definition 7: mixed colors are granted first
// to the attribute listed first (the endpoints' own attribute for
// same-attribute edges), then the remainder to the other attribute.
func gsupValues(ca, cb, cm, ta, tb int32, aFirst bool) (ga, gb int32) {
	alloc := func(have, want, pool int32) (int32, int32) {
		if have >= want {
			return have, pool
		}
		take := want - have
		if take > pool {
			take = pool
		}
		return have + take, pool - take
	}
	if aFirst {
		ga, cm = alloc(ca, ta, cm)
		gb, _ = alloc(cb, tb, cm)
		return ga, gb
	}
	gb, cm = alloc(cb, tb, cm)
	ga, _ = alloc(ca, ta, cm)
	return ga, gb
}

// violates is the support test of both reductions on both paths: edge
// e of g, whose common neighbours' colours split into ca a-only, cb
// b-only and cm mixed colours, fails Lemma 4 at k. The plain reduction
// passes its Da and Db with cm = 0, where the greedy allocation grants
// nothing and the test is Lemma 3's.
func violates(g *graph.Graph, e, k, ca, cb, cm int32) bool {
	u, v := g.Edge(e)
	au, av := g.Attr(u), g.Attr(v)
	ta, tb := thresholds(au, av, k)
	aFirst := !(au == graph.AttrB && av == graph.AttrB)
	ga, gb := gsupValues(ca, cb, cm, ta, tb, aFirst)
	return ga < ta || gb < tb
}

// EnColorfulSup runs the enhanced colorful-support reduction
// (Lemma 4): like ColorfulSup, but each color among an edge's common
// neighbours is assigned exclusively to one attribute before the
// support test, which removes the over-counting of mixed colors.
// Strictly stronger than ColorfulSup. Cost, memory and the dense-row
// cutoff are ColorfulSup's.
func EnColorfulSup(g *graph.Graph, col *color.Coloring, k int32) *Result {
	if g.N() <= denseMaxVertices {
		return supDense(g, col, k, true)
	}
	return supMerge(g, col, k, true)
}

// supMerge is ColorfulSup (enhanced false) and EnColorfulSup (enhanced
// true) on sorted adjacency lists. A colorful.Tally with one row per
// edge counts the (attribute, colour) pairs among its endpoints' common
// neighbours; only the enhanced reduction keeps the tally's mixed
// count. Cost: deg(u)+deg(v) steps per edge (u,v) to count its support
// and again for each peeled edge; memory: the tally's
// [|E| × 2 × colours] counters (per-edge maps past its budget).
func supMerge(g *graph.Graph, col *color.Coloring, k int32, enhanced bool) *Result {
	m := g.M()
	edgeAlive := make([]bool, m)
	for i := range edgeAlive {
		edgeAlive[i] = true
	}
	if m == 0 {
		return finish(g, edgeAlive)
	}
	t := colorful.NewTally(m, col.Num, enhanced)
	// Initialize supports by triangle enumeration (lines 2-5).
	for e := int32(0); e < m; e++ {
		u, v := g.Edge(e)
		g.CommonNeighbors(u, v, func(w int32) { t.Add(e, g.Attr(w), col.Of(w)) })
	}
	fails := func(e int32) bool {
		ca, cb, cm := t.Classes(e)
		return violates(g, e, k, ca, cb, cm)
	}
	// Edges are marked dead only when popped; a queued edge still
	// participates in triangle counting until then, so each destroyed
	// triangle decrements its remaining edges exactly once even when
	// several of its edges are queued together.
	queued := make([]bool, m)
	var queue []int32
	push := func(e int32) {
		if !queued[e] {
			queued[e] = true
			queue = append(queue, e)
		}
	}
	for e := int32(0); e < m; e++ {
		if fails(e) {
			push(e)
		}
	}
	// drop charges edge e for its lost triangle with lost.
	drop := func(e, lost int32) {
		if t.Remove(e, g.Attr(lost), col.Of(lost)) && fails(e) {
			push(e)
		}
	}
	// Peeling (lines 17-25): each removed edge (u,v) subtracts v from
	// the support of every remaining edge (u,w) with w a common
	// neighbour, and u from every remaining edge (v,w).
	for len(queue) > 0 {
		e := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		edgeAlive[e] = false
		u, v := g.Edge(e)
		g.CommonNeighbors(u, v, func(w int32) {
			euw, ok1 := g.EdgeID(u, w)
			evw, ok2 := g.EdgeID(v, w)
			if !ok1 || !ok2 || !edgeAlive[euw] || !edgeAlive[evw] {
				return
			}
			drop(euw, v)
			drop(evw, u)
		})
	}
	return finish(g, edgeAlive)
}

// EnColorfulCore wraps the enhanced colorful core of internal/colorful
// in the Result shape so the three reductions compose uniformly. Edges
// survive iff both endpoints survive the vertex peeling.
func EnColorfulCore(g *graph.Graph, col *color.Coloring, k int32) *Result {
	alive := colorful.EnhancedKCore(g, col, k)
	edgeAlive := make([]bool, g.M())
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		edgeAlive[e] = alive[u] && alive[v]
	}
	return finish(g, edgeAlive)
}
