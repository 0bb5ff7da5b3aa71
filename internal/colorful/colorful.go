// Package colorful implements the color-and-attribute-aware degree
// structures at the heart of the paper's reductions and bounds:
//
//   - colorful degrees Da/Db (Definition 2) and the colorful k-core
//     (Definition 3, Lemma 1),
//   - enhanced colorful degree ED (Definition 4) and the enhanced
//     colorful k-core (Definition 5, Lemma 2),
//   - colorful core numbers / colorful degeneracy (Definitions 8–9) and
//     the colorful-core peeling order used by CalColorOD,
//   - the colorful h-index (Definition 10).
//
// All of them count on one Tally: per row, how many neighbours wear
// each (attribute, colour) pair, with Da and Db kept per row and the
// mixed count only on enhanced tallies (EnhancedKCore, ClassCounts, and
// internal/reduce's EnColorfulSup, whose rows are edges).
package colorful

import (
	"fairclique/internal/color"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
)

// Degrees holds the per-vertex colorful degrees of a colored graph:
// Da(u) and Db(u) count the distinct colors among u's neighbours with
// attribute a and b respectively.
type Degrees struct {
	Da, Db []int32
}

// Dmin returns min(Da(u), Db(u)).
func (d *Degrees) Dmin(u int32) int32 {
	if d.Da[u] < d.Db[u] {
		return d.Da[u]
	}
	return d.Db[u]
}

// ComputeDegrees computes the colorful degrees of every vertex of g
// under the coloring col.
func ComputeDegrees(g *graph.Graph, col *color.Coloring) *Degrees {
	t := vertexTally(g, col, false)
	return &Degrees{Da: t.deg[graph.AttrA], Db: t.deg[graph.AttrB]}
}

// vertexTally tallies every vertex's neighbours of g under col.
func vertexTally(g *graph.Graph, col *color.Coloring, enhanced bool) *Tally {
	t := NewTally(g.N(), col.Num, enhanced)
	for u := int32(0); u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			t.Add(u, g.Attr(w), col.Of(w))
		}
	}
	return t
}

// KCore peels g down to its colorful k-core: the maximal subgraph in
// which every vertex u has min(Da(u), Db(u)) >= k. It returns the alive
// mask over g's vertices. Implements the reduction of Lemma 1 when
// called with k-1.
func KCore(g *graph.Graph, col *color.Coloring, k int32) []bool {
	return peel(g, col, k, false)
}

// EDValue returns the enhanced colorful degree value for a vertex whose
// neighbour colors split into ca exclusive-a colors, cb exclusive-b
// colors, and cm mixed colors (Definition 4): the best achievable
// min(side a, side b) over assignments of each mixed color to one side.
// With cm = 0 it is min(ca, cb), the plain colorful degree.
func EDValue(ca, cb, cm int32) int32 {
	lo, hi := ca, cb
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo+cm <= hi {
		return lo + cm
	}
	return (ca + cb + cm) / 2
}

// EnhancedKCore peels g down to its enhanced colorful k-core: the
// maximal subgraph in which every vertex u has ED(u) >= k, where each
// color is assigned exclusively to one attribute (Definition 5).
// Implements the reduction of Lemma 2 when called with k-1.
func EnhancedKCore(g *graph.Graph, col *color.Coloring, k int32) []bool {
	return peel(g, col, k, true)
}

// peel is KCore (enhanced false) and EnhancedKCore (enhanced true): it
// removes vertices whose Tally.degree is below k until none is left,
// and returns the alive mask. A vertex is re-tested only when one of
// its colours vanishes for an attribute, the only event that lowers
// its degree.
func peel(g *graph.Graph, col *color.Coloring, k int32, enhanced bool) []bool {
	n := g.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	if n == 0 {
		return alive
	}
	t := vertexTally(g, col, enhanced)
	queued := make([]bool, n)
	var queue []int32
	push := func(v int32) {
		if !queued[v] {
			queued[v] = true
			queue = append(queue, v)
		}
	}
	for v := int32(0); v < n; v++ {
		if t.degree(v) < k {
			push(v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		alive[v] = false
		av, cv := g.Attr(v), col.Of(v)
		for _, w := range g.Neighbors(v) {
			if alive[w] && t.Remove(w, av, cv) && t.degree(w) < k {
				push(w)
			}
		}
	}
	return alive
}

// Decomposition is a full colorful core decomposition.
type Decomposition struct {
	// Core[v] is the colorful core number of v (Definition 8): the
	// largest k such that the colorful k-core contains v.
	Core []int32
	// Order is the peeling order; CalColorOD in Algorithm 2 ranks
	// vertices by their position here.
	Order []int32
	// Degeneracy is the colorful degeneracy (Definition 9).
	Degeneracy int32
}

// Decompose computes colorful core numbers by generalized min-peeling
// on Dmin = min(Da, Db): repeatedly remove the vertex with smallest
// current Dmin; its core number is the running maximum of the value at
// removal. Dmin is monotone under vertex deletion, which makes this the
// standard generalized-core construction.
func Decompose(g *graph.Graph, col *color.Coloring) *Decomposition {
	n := g.N()
	d := &Decomposition{Core: make([]int32, n), Order: make([]int32, 0, n)}
	if n == 0 {
		return d
	}
	t := vertexTally(g, col, false)
	key := make([]int32, n)
	maxKey := int32(0)
	for v := int32(0); v < n; v++ {
		key[v] = t.degree(v)
		maxKey = max(maxKey, key[v])
	}
	// Lazy bucket queue: buckets[d] holds candidates whose key may be d;
	// stale entries (key changed or already removed) are skipped on pop.
	buckets := make([][]int32, maxKey+1)
	for v := int32(0); v < n; v++ {
		buckets[key[v]] = append(buckets[key[v]], v)
	}
	removed := make([]bool, n)
	ptr := int32(0)
	var level int32
	for popped := int32(0); popped < n; {
		for ptr <= maxKey && len(buckets[ptr]) == 0 {
			ptr++
		}
		b := buckets[ptr]
		v := b[len(b)-1]
		buckets[ptr] = b[:len(b)-1]
		if removed[v] || key[v] != ptr {
			continue // stale entry
		}
		removed[v] = true
		popped++
		if ptr > level {
			level = ptr
		}
		d.Core[v] = level
		d.Order = append(d.Order, v)
		av, cv := g.Attr(v), col.Of(v)
		for _, w := range g.Neighbors(v) {
			if removed[w] {
				continue
			}
			if !t.Remove(w, av, cv) {
				continue
			}
			if nk := t.degree(w); nk < key[w] {
				key[w] = nk
				buckets[nk] = append(buckets[nk], w)
				ptr = min(ptr, nk)
			}
		}
	}
	d.Degeneracy = level
	return d
}

// Degeneracy returns the colorful degeneracy of g under col.
func Degeneracy(g *graph.Graph, col *color.Coloring) int32 {
	return Decompose(g, col).Degeneracy
}

// HIndex returns the colorful h-index of g under col (Definition 10):
// the largest h such that at least h vertices have Dmin >= h.
func HIndex(g *graph.Graph, col *color.Coloring) int32 {
	deg := ComputeDegrees(g, col)
	seq := make([]int32, g.N())
	for v := int32(0); v < g.N(); v++ {
		seq[v] = deg.Dmin(v)
	}
	return kcore.HIndexOf(seq)
}

// PeelRank returns rank[v] = position of v in the colorful-core peeling
// order; this is the CalColorOD vertex ordering of Algorithm 2 line 9.
func PeelRank(g *graph.Graph, col *color.Coloring) []int32 {
	d := Decompose(g, col)
	rank := make([]int32, g.N())
	for i, v := range d.Order {
		rank[v] = int32(i)
	}
	return rank
}
