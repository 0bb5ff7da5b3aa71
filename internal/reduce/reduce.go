// Package reduce implements the paper's novel graph reduction
// techniques: the colorful-support edge peeling ColorfulSup
// (Definition 6, Lemma 3, Algorithm 1) and its enhanced variant
// EnColorfulSup (Definition 7, Lemma 4). Both are truss-decomposition
// style algorithms: they iteratively delete edges whose (enhanced)
// colorful support cannot occur inside a relative fair clique of the
// requested size, propagating support decrements over triangles.
package reduce

import (
	"fairclique/internal/color"
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

// edgeCounter tracks per-edge (attribute, color) counts over common
// neighbours, mirroring M_(u,v) in Algorithm 1. Flat storage when the
// [m × 2 × colors] array fits a budget, otherwise per-edge maps.
type edgeCounter struct {
	numColors int32
	flat      []int32
	maps      []map[int32]int32
}

// flatBudget caps the flat per-edge array; a variable so tests can
// force the map fallback path.
var flatBudget int64 = 1 << 25

func newEdgeCounter(m, numColors int32) *edgeCounter {
	if numColors == 0 {
		numColors = 1
	}
	c := &edgeCounter{numColors: numColors}
	if int64(m)*2*int64(numColors) <= flatBudget {
		c.flat = make([]int32, int64(m)*2*int64(numColors))
	} else {
		c.maps = make([]map[int32]int32, m)
	}
	return c
}

func (c *edgeCounter) inc(e int32, attr graph.Attr, col int32) bool {
	k := int32(attr)*c.numColors + col
	if c.flat != nil {
		idx := int64(e)*2*int64(c.numColors) + int64(k)
		c.flat[idx]++
		return c.flat[idx] == 1
	}
	if c.maps[e] == nil {
		c.maps[e] = make(map[int32]int32, 4)
	}
	c.maps[e][k]++
	return c.maps[e][k] == 1
}

func (c *edgeCounter) dec(e int32, attr graph.Attr, col int32) bool {
	k := int32(attr)*c.numColors + col
	if c.flat != nil {
		idx := int64(e)*2*int64(c.numColors) + int64(k)
		c.flat[idx]--
		return c.flat[idx] == 0
	}
	m := c.maps[e]
	m[k]--
	if m[k] == 0 {
		delete(m, k)
		return true
	}
	return false
}

func (c *edgeCounter) get(e int32, attr graph.Attr, col int32) int32 {
	k := int32(attr)*c.numColors + col
	if c.flat != nil {
		return c.flat[int64(e)*2*int64(c.numColors)+int64(k)]
	}
	return c.maps[e][k]
}

// ColorfulSup runs Algorithm 1: it peels every edge whose colorful
// support violates Lemma 3 for the size constraint k and returns the
// surviving edge/vertex masks. Any relative fair clique of G with both
// attribute counts >= k survives intact.
//
// Graphs of at most denseMaxVertices (graph.ChunkBits) vertices run on
// dense adjacency rows (supDense): n²/8 bytes, O(n/64) words plus one
// step per common neighbour for each edge's support. Larger graphs
// merge sorted adjacency lists: deg(u)+deg(v) steps per edge (u,v) to
// count its support and again for each peeled edge, with an
// [|E| × 2 × colors] counter (per-edge maps past flatBudget).
func ColorfulSup(g *graph.Graph, col *color.Coloring, k int32) *Result {
	if g.N() <= denseMaxVertices {
		return supDense(g, col, k, false)
	}
	m := g.M()
	edgeAlive := make([]bool, m)
	for i := range edgeAlive {
		edgeAlive[i] = true
	}
	if m == 0 {
		return finish(g, edgeAlive)
	}
	cnt := newEdgeCounter(m, col.Num)
	supA := make([]int32, m)
	supB := make([]int32, m)
	// Initialize supports by triangle enumeration (lines 2-5).
	for e := int32(0); e < m; e++ {
		u, v := g.Edge(e)
		g.CommonNeighbors(u, v, func(w int32) {
			if cnt.inc(e, g.Attr(w), col.Of(w)) {
				if g.Attr(w) == graph.AttrA {
					supA[e]++
				} else {
					supB[e]++
				}
			}
		})
	}
	violates := func(e int32) bool {
		u, v := g.Edge(e)
		ta, tb := thresholds(g.Attr(u), g.Attr(v), k)
		return supA[e] < ta || supB[e] < tb
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
		if violates(e) {
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
			decSup := func(target int32, lost int32) {
				if cnt.dec(target, g.Attr(lost), col.Of(lost)) {
					if g.Attr(lost) == graph.AttrA {
						supA[target]--
					} else {
						supB[target]--
					}
					if violates(target) {
						push(target)
					}
				}
			}
			decSup(euw, v)
			decSup(evw, u)
		})
	}
	return finish(g, edgeAlive)
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
	m := g.M()
	edgeAlive := make([]bool, m)
	for i := range edgeAlive {
		edgeAlive[i] = true
	}
	if m == 0 {
		return finish(g, edgeAlive)
	}
	cnt := newEdgeCounter(m, col.Num)
	// Per-edge color-group tallies.
	ca := make([]int32, m)
	cb := make([]int32, m)
	cm := make([]int32, m)
	for e := int32(0); e < m; e++ {
		u, v := g.Edge(e)
		g.CommonNeighbors(u, v, func(w int32) {
			aw, cw := g.Attr(w), col.Of(w)
			if !cnt.inc(e, aw, cw) {
				return
			}
			if cnt.get(e, aw.Other(), cw) > 0 {
				cm[e]++
				if aw == graph.AttrA {
					cb[e]--
				} else {
					ca[e]--
				}
			} else if aw == graph.AttrA {
				ca[e]++
			} else {
				cb[e]++
			}
		})
	}
	violates := func(e int32) bool {
		u, v := g.Edge(e)
		au, av := g.Attr(u), g.Attr(v)
		ta, tb := thresholds(au, av, k)
		aFirst := !(au == graph.AttrB && av == graph.AttrB)
		ga, gb := gsupValues(ca[e], cb[e], cm[e], ta, tb, aFirst)
		return ga < ta || gb < tb
	}
	// See ColorfulSup: death at pop time keeps triangle accounting exact.
	queued := make([]bool, m)
	var queue []int32
	push := func(e int32) {
		if !queued[e] {
			queued[e] = true
			queue = append(queue, e)
		}
	}
	for e := int32(0); e < m; e++ {
		if violates(e) {
			push(e)
		}
	}
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
			decGroup := func(target int32, lost int32) {
				al, cl := g.Attr(lost), col.Of(lost)
				if !cnt.dec(target, al, cl) {
					return
				}
				if cnt.get(target, al.Other(), cl) > 0 {
					// Mixed -> exclusive to the other attribute.
					cm[target]--
					if al == graph.AttrA {
						cb[target]++
					} else {
						ca[target]++
					}
				} else if al == graph.AttrA {
					ca[target]--
				} else {
					cb[target]--
				}
				if violates(target) {
					push(target)
				}
			}
			decGroup(euw, v)
			decGroup(evw, u)
		})
	}
	return finish(g, edgeAlive)
}

// EnColorfulCore wraps the enhanced colorful core of internal/colorful
// in the Result shape so the three reductions compose uniformly. Edges
// survive iff both endpoints survive the vertex peeling.
func EnColorfulCore(g *graph.Graph, col *color.Coloring, k int32) *Result {
	alive := enhancedCore(g, col, k)
	edgeAlive := make([]bool, g.M())
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		edgeAlive[e] = alive[u] && alive[v]
	}
	return finish(g, edgeAlive)
}
