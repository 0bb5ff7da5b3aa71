package reduce

import (
	"math/bits"

	"fairclique/internal/color"
	"fairclique/internal/graph"
)

// denseMaxVertices is the largest graph ColorfulSup and EnColorfulSup
// run on dense adjacency rows; larger graphs take the sorted-list
// merge path, because the rows cost n²/8 bytes (2 MiB at the cutoff,
// 1.25 GB at 100K vertices). A variable so tests can force either path.
var denseMaxVertices int32 = graph.ChunkBits

// denseSup is the word-parallel state of one support reduction. It
// holds every vertex's alive adjacency as a packed row, every
// (attribute, color) class as a packed row, and each vertex's slot in
// a color-set scratch whose first half holds attribute-a colors and
// whose second half holds attribute-b colors.
type denseSup struct {
	words     int32    // words per vertex or class row
	rows      []uint64 // rows[v*words:] = alive neighbours of v
	lo, hi    []int32  // v's neighbours lie in words [lo[v], hi[v])
	class     []uint64 // class[key*words:] = vertices whose key is key
	numColors int32
	key       []int32  // key[v] = attr(v)*numColors + color(v)
	half      int32    // words per attribute half of set
	setWord   []int32  // word of v's color in set
	setBit    []uint64 // bit of v's color in that word
	set       []uint64 // color-set scratch, 2*half words, zero between calls
}

func newDenseSup(g *graph.Graph, col *color.Coloring) *denseSup {
	n, nc := g.N(), col.Num
	words := graph.BitWords(n)
	half := graph.BitWords(nc)
	d := &denseSup{
		words:     words,
		rows:      make([]uint64, n*words),
		lo:        make([]int32, n),
		hi:        make([]int32, n),
		class:     make([]uint64, 2*nc*words),
		numColors: nc,
		key:       make([]int32, n),
		half:      half,
		setWord:   make([]int32, n),
		setBit:    make([]uint64, n),
		set:       make([]uint64, 2*half),
	}
	for v := int32(0); v < n; v++ {
		row := d.row(v)
		nbrs := g.Neighbors(v)
		for _, w := range nbrs {
			graph.BitSet(row, w)
		}
		if len(nbrs) > 0 {
			d.lo[v], d.hi[v] = nbrs[0]>>6, nbrs[len(nbrs)-1]>>6+1
		}
		a, c := int32(g.Attr(v)), col.Of(v)
		d.key[v] = a*nc + c
		graph.BitSet(d.classRow(d.key[v]), v)
		d.setWord[v] = a*half + c>>6
		d.setBit[v] = 1 << uint(c&63)
	}
	return d
}

func (d *denseSup) row(v int32) []uint64 { return d.rows[v*d.words : (v+1)*d.words] }

// common returns the words [lo, hi) that can hold a common neighbour
// of u and v. Rows only lose bits, so ranges taken from the input
// adjacency stay valid.
func (d *denseSup) common(u, v int32) (lo, hi int32) {
	return max(d.lo[u], d.lo[v]), min(d.hi[u], d.hi[v])
}

func (d *denseSup) classRow(key int32) []uint64 {
	return d.class[key*d.words : (key+1)*d.words]
}

// otherKey is the key of v's color under the other attribute.
func (d *denseSup) otherKey(v int32) int32 {
	k := d.key[v]
	if k >= d.numColors {
		return k - d.numColors
	}
	return k + d.numColors
}

// tally counts the colors among the common neighbours of u and v:
// colors only attribute a has, colors only b has, and colors both
// have. The scratch is filled from the AND of the two rows and cleared
// again on the way out.
func (d *denseSup) tally(u, v int32) (ca, cb, cm int32) {
	ru, rv := d.row(u), d.row(v)
	for i, hi := d.common(u, v); i < hi; i++ {
		x := ru[i] & rv[i]
		for x != 0 {
			w := i<<6 + int32(bits.TrailingZeros64(x))
			d.set[d.setWord[w]] |= d.setBit[w]
			x &= x - 1
		}
	}
	sa, sb := d.set[:d.half], d.set[d.half:]
	for i := range sa {
		a, b := sa[i], sb[i]
		ca += int32(bits.OnesCount64(a &^ b))
		cb += int32(bits.OnesCount64(b &^ a))
		cm += int32(bits.OnesCount64(a & b))
		sa[i], sb[i] = 0, 0
	}
	return ca, cb, cm
}

// shares reports whether u and w still have a common neighbour whose
// key is key.
func (d *denseSup) shares(u, w, key int32) bool {
	ru, rw, c := d.row(u), d.row(w), d.classRow(key)
	for i, hi := d.common(u, w); i < hi; i++ {
		if ru[i]&rw[i]&c[i] != 0 {
			return true
		}
	}
	return false
}

// supDense is ColorfulSup (enhanced false) and EnColorfulSup (enhanced
// true) on dense rows. It peels exactly the edges of the merge path, in
// the same order: a count the merge path keeps for key K on edge (u,w)
// is the popcount of row(u) ∧ row(w) ∧ class(K), so an edge loses a
// color exactly when that AND becomes empty. An edge stays in the rows
// until it is popped, as it stays alive in the merge path.
//
// Cost: O(n²/64) to clear the rows, then per edge one AND over at most
// n/64 words (the overlap of the endpoints' neighbour ranges) plus one
// step per common neighbour, and per destroyed triangle one or two
// AND tests over the same overlap. Memory: n²/8 bytes of rows,
// colors·n/4 bytes of classes and O(|E|) tallies; no per-edge color
// counter.
func supDense(g *graph.Graph, col *color.Coloring, k int32, enhanced bool) *Result {
	m := g.M()
	edgeAlive := make([]bool, m)
	for i := range edgeAlive {
		edgeAlive[i] = true
	}
	if m == 0 {
		return finish(g, edgeAlive)
	}
	d := newDenseSup(g, col)
	// sup[a][e] counts the colors of attribute a among e's common
	// neighbours. The enhanced reduction counts the colors both
	// attributes have in mixed[e] instead; the plain one counts them in
	// both sup rows and leaves mixed at zero.
	sup := [2][]int32{make([]int32, m), make([]int32, m)}
	mixed := make([]int32, m)
	for e := int32(0); e < m; e++ {
		ca, cb, cm := d.tally(g.Edge(e))
		if enhanced {
			sup[0][e], sup[1][e], mixed[e] = ca, cb, cm
		} else {
			sup[0][e], sup[1][e] = ca+cm, cb+cm
		}
	}
	fails := func(e int32) bool { return violates(g, e, k, sup[0][e], sup[1][e], mixed[e]) }
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
	// drop charges edge (a, w) for its lost triangle with lost.
	drop := func(a, w, lost int32) {
		if d.shares(a, w, d.key[lost]) {
			return
		}
		t, _ := g.EdgeID(a, w)
		al := g.Attr(lost)
		if enhanced && d.shares(a, w, d.otherKey(lost)) {
			// Mixed -> exclusive to the other attribute.
			mixed[t]--
			sup[al.Other()][t]++
		} else {
			sup[al][t]--
		}
		if fails(t) {
			push(t)
		}
	}
	for len(queue) > 0 {
		e := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		edgeAlive[e] = false
		u, v := g.Edge(e)
		ru, rv := d.row(u), d.row(v)
		ru[v>>6] &^= 1 << uint(v&63)
		rv[u>>6] &^= 1 << uint(u&63)
		for i, hi := d.common(u, v); i < hi; i++ {
			x := ru[i] & rv[i]
			for x != 0 {
				w := i<<6 + int32(bits.TrailingZeros64(x))
				drop(u, w, v)
				drop(v, w, u)
				x &= x - 1
			}
		}
	}
	return finish(g, edgeAlive)
}
