package colorful

import (
	"fairclique/internal/color"
	"fairclique/internal/graph"
)

// Tally counts, for every row, how many of the row's neighbours wear
// each (attribute, colour) pair. A row is a vertex, counting its
// neighbours, or, for the support reductions of internal/reduce, an
// edge, counting its endpoints' common neighbours (M_(u,v) of
// Algorithm 1). From those counters it keeps, per row, the colorful
// degrees Da and Db (Definition 2): the colours with a non-zero
// attribute-a and attribute-b counter. An enhanced tally also keeps the
// mixed count M, the colours both attributes wear, which splits the
// row's colours into Da−M a-only, Db−M b-only and M mixed
// (Definitions 4 and 7). Plain tallies skip that bookkeeping.
//
// A row's two counters of one colour share a word: the a-count in the
// low half, the b-count in the high half, so the mixed test reads
// nothing more. Storage is a flat [rows × colours] array of these words
// while rows × 2 × colours fits FlatBudget, and a lazily made map per
// row past it.
type Tally struct {
	colors int
	flat   []uint64
	maps   []map[int32]uint64
	deg    [2][]int32 // deg[a][row]: colours attribute a wears at row
	mixed  []int32    // colours both attributes wear; nil on a plain tally
}

// FlatBudget caps the flat array at 32M counters (128 MB). It is a
// variable so tests, here and in internal/reduce, can force the map
// path; nothing else sets it.
var FlatBudget int64 = 1 << 25

// NewTally returns an empty tally of rows rows over colours colours;
// enhanced selects whether it keeps the mixed count.
func NewTally(rows, colours int32, enhanced bool) *Tally {
	t := &Tally{colors: int(max(colours, 1))}
	t.deg = [2][]int32{make([]int32, rows), make([]int32, rows)}
	if enhanced {
		t.mixed = make([]int32, rows)
	}
	if int64(rows)*2*int64(t.colors) <= FlatBudget {
		t.flat = make([]uint64, int(rows)*t.colors)
	} else {
		t.maps = make([]map[int32]uint64, rows)
	}
	return t
}

// Add counts one more neighbour wearing (a, c) at row and reports
// whether colour c thereby appeared for attribute a there.
func (t *Tally) Add(row int32, a graph.Attr, c int32) bool {
	s := 32 * uint(a&1)
	x := t.bump(row, c, 1<<s)
	if uint32(x>>s) != 1 {
		return false
	}
	t.deg[a&1][row]++
	if t.mixed != nil && uint32(x>>(32-s)) != 0 {
		t.mixed[row]++
	}
	return true
}

// Remove counts one fewer neighbour wearing (a, c) at row, which must
// have one, and reports whether colour c thereby vanished for attribute
// a there.
func (t *Tally) Remove(row int32, a graph.Attr, c int32) bool {
	s := 32 * uint(a&1)
	one := uint64(1) << s
	x := t.bump(row, c, -one)
	if uint32(x>>s) != 0 {
		return false
	}
	t.deg[a&1][row]--
	if t.mixed != nil && uint32(x>>(32-s)) != 0 {
		t.mixed[row]--
	}
	return true
}

// bump adds d, modulo 2⁶⁴, to row's counter word of colour c and
// returns the new word.
func (t *Tally) bump(row, c int32, d uint64) uint64 {
	if t.flat != nil {
		p := &t.flat[int(row)*t.colors+int(c)]
		*p += d
		return *p
	}
	m := t.maps[row]
	if m == nil {
		m = make(map[int32]uint64, 4)
		t.maps[row] = m
	}
	x := m[c] + d
	if x == 0 {
		delete(m, c)
	} else {
		m[c] = x
	}
	return x
}

// count returns how many of row's neighbours wear (a, c).
func (t *Tally) count(row int32, a graph.Attr, c int32) int32 {
	var x uint64
	if t.flat != nil {
		x = t.flat[int(row)*t.colors+int(c)]
	} else {
		x = t.maps[row][c]
	}
	return int32(uint32(x >> (32 * uint(a&1))))
}

// Classes returns row's a-only, b-only and mixed colour counts. On a
// plain tally the mixed count is 0 and the first two are Da and Db.
func (t *Tally) Classes(row int32) (ca, cb, cm int32) {
	if t.mixed != nil {
		cm = t.mixed[row]
	}
	return t.deg[graph.AttrA][row] - cm, t.deg[graph.AttrB][row] - cm, cm
}

// degree is the value the colorful cores peel by: min(Da, Db) on a
// plain tally (Lemma 1) and the enhanced colorful degree ED on an
// enhanced one (Lemma 2).
func (t *Tally) degree(row int32) int32 {
	return EDValue(t.Classes(row))
}

// ClassCounts returns the a-only, b-only and mixed colour classes of
// the vertices vs of g (every vertex of g when vs is nil) under col:
// how many colours only a-vertices wear, only b-vertices wear, and both
// wear. col is read only at vs.
func ClassCounts(g *graph.Graph, vs []int32, col *color.Coloring) (ca, cb, cm int32) {
	t := NewTally(1, col.Num, true)
	if vs == nil {
		for v := int32(0); v < g.N(); v++ {
			t.Add(0, g.Attr(v), col.Of(v))
		}
	}
	for _, v := range vs {
		t.Add(0, g.Attr(v), col.Of(v))
	}
	return t.Classes(0)
}
