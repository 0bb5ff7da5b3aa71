// Package bounds implements every upper bound on the maximum relative
// fair clique size used by the MaxRFC branch-and-bound (§IV-B and
// §IV-C): the size, attribute, color, attribute-color and
// enhanced-attribute-color bounds that form the paper's "advanced"
// group ubAD (Lemmas 5-9), the degeneracy and h-index bounds
// (Lemmas 10-11), and the non-trivial colorful degeneracy, colorful
// h-index and colorful path bounds (Lemmas 12-14, Algorithm 4).
//
// All bounds are evaluated on the subgraph G' induced by a search
// instance (R, C). Where the paper's printed formulas are off by a
// small constant, the provably safe variants are used: a clique of ω
// vertices has degeneracy and h-index ω−1, so ω ≤ degeneracy+1 and
// ω ≤ h-index+1, and the colorful analogues carry the same +1
// (2·(colorful degeneracy+1)+δ and 2·(colorful h-index+1)+δ); ubeac
// uses the balanced mixed-color assignment.
package bounds

import (
	"sort"

	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
)

// Extra selects the optional non-trivial bound added on top of the
// advanced group, matching the six configurations of Table II.
type Extra int

const (
	// None uses only the advanced group ubAD.
	None Extra = iota
	// Degeneracy adds ub△ (Lemma 10).
	Degeneracy
	// HIndex adds ubh (Lemma 11).
	HIndex
	// ColorfulDegeneracy adds ubcd (Lemma 12).
	ColorfulDegeneracy
	// ColorfulHIndex adds ubch (Lemma 13).
	ColorfulHIndex
	// ColorfulPath adds ubcp (Lemma 14, Algorithm 4).
	ColorfulPath
)

// String names the configuration the way Table II labels its columns.
func (e Extra) String() string {
	switch e {
	case None:
		return "ubAD"
	case Degeneracy:
		return "ubAD+ubDeg"
	case HIndex:
		return "ubAD+ubH"
	case ColorfulDegeneracy:
		return "ubAD+ubCD"
	case ColorfulHIndex:
		return "ubAD+ubCH"
	case ColorfulPath:
		return "ubAD+ubCP"
	}
	return "unknown"
}

// Extras lists all six Table II configurations in paper order.
func Extras() []Extra {
	return []Extra{None, Degeneracy, HIndex, ColorfulDegeneracy, ColorfulHIndex, ColorfulPath}
}

// Combine folds two attribute-side capacities x and y into a fair-size
// bound under difference tolerance delta: min(x+y, 2*min(x,y)+delta).
// This is the shared shape of Lemmas 6, 8, 12 and 13.
func Combine(x, y, delta int32) int32 {
	lo := x
	if y < lo {
		lo = y
	}
	if s := x + y; s < 2*lo+delta {
		return s
	}
	return 2*lo + delta
}

// Size returns ubs (Lemma 5): the instance size |R|+|C| = |V(G')|.
func Size(g *graph.Graph) int32 { return g.N() }

// Attribute returns uba (Lemma 6) from the attribute counts of G'.
func Attribute(g *graph.Graph, delta int32) int32 {
	na, nb := g.AttrCount()
	return Combine(na, nb, delta)
}

// Color returns ubc (Lemma 7): the number of greedy colors of G'.
func Color(col *color.Coloring) int32 { return col.Num }

// AttributeColor returns ubac (Lemma 8): attribute-side color counts,
// where a color counts toward attribute a if any a-vertex wears it
// (colors may count toward both sides).
func AttributeColor(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	ca, cb, cm := colorful.ClassCounts(g, nil, col)
	return Combine(ca+cm, cb+cm, delta)
}

// EnhancedAttributeColor returns ubeac (Lemma 9, corrected): colors are
// grouped into exclusive-a (ca), exclusive-b (cb) and mixed (cm); each
// clique vertex consumes one whole color, so with the mixed pool
// assigned to balance the sides the best achievable minimum side is
// t = min(ca,cb)+cm when that still does not exceed max(ca,cb), and
// ⌊(ca+cb+cm)/2⌋ otherwise; the bound is min(ca+cb+cm, 2t+δ).
func EnhancedAttributeColor(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	ca, cb, cm := colorful.ClassCounts(g, nil, col)
	return enhanced(ca, cb, cm, delta)
}

// enhanced is ubeac from the exclusive-a, exclusive-b and mixed class
// counts: min(ca+cb+cm, 2t+δ) with t the balanced minimum side.
func enhanced(ca, cb, cm, delta int32) int32 {
	t := colorful.EDValue(ca, cb, cm)
	total := ca + cb + cm
	if ub := 2*t + delta; ub < total {
		return ub
	}
	return total
}

// AD returns the advanced group ubAD (Lemmas 5-9) of an instance with
// na a-vertices and nb b-vertices, given a proper colouring of it whose
// classes split into ca a-only, cb b-only and cm mixed classes: the
// minimum of ubs = na+nb, uba = Combine(na, nb, δ), ubc = ca+cb+cm,
// ubac = Combine(ca+cm, cb+cm, δ) and ubeac. uba never exceeds ubs and
// ubeac never exceeds ubc, so only the other three are computed.
func AD(na, nb, ca, cb, cm, delta int32) int32 {
	ub := Combine(na, nb, delta)
	if v := Combine(ca+cm, cb+cm, delta); v < ub {
		ub = v
	}
	if v := enhanced(ca, cb, cm, delta); v < ub {
		ub = v
	}
	return ub
}

// DegeneracyBound returns ub△ (Lemma 10, +1-corrected): any clique of
// G' has size at most degeneracy(G')+1.
func DegeneracyBound(g *graph.Graph) int32 {
	return cliqueBound(kcore.Degeneracy(g))
}

// HIndexBound returns ubh (Lemma 11, +1-corrected): any clique of G'
// has size at most h(G')+1.
func HIndexBound(g *graph.Graph) int32 {
	return cliqueBound(kcore.HIndex(g))
}

// ColorfulDegeneracyBound returns ubcd (Lemma 12, corrected): a fair
// clique with per-attribute minimum m sits inside the colorful
// (m-1)-core, so m <= colorful-degeneracy+1 and the size is at most
// 2*(colorful-degeneracy+1)+δ.
func ColorfulDegeneracyBound(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	return fairBound(colorful.Degeneracy(g, col), delta)
}

// ColorfulHIndexBound returns ubch (Lemma 13, corrected): a fair clique
// with per-attribute minimum m contributes at least 2m vertices of
// Dmin >= m-1, so m <= colorful-h-index+1 and the size is at most
// 2*(colorful-h-index+1)+δ.
func ColorfulHIndexBound(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	return fairBound(colorful.HIndex(g, col), delta)
}

// cliqueBound is the clique size a degeneracy-like statistic h allows
// (Lemmas 10-11): a clique of ω vertices has h ≥ ω−1.
func cliqueBound(h int32) int32 { return h + 1 }

// fairBound is the fair-clique size a colorful statistic h allows
// (Lemmas 12-13): each side holds at most h+1 vertices, the larger
// exceeding the smaller by at most δ.
func fairBound(h, delta int32) int32 { return 2*(h+1) + delta }

// ColorfulPathBound returns ubcp (Lemma 14) by running the dynamic
// program of Algorithm 4: orient every edge by the total order
// (color, id); the result is a DAG whose directed paths have strictly
// increasing colors (same-color vertices are never adjacent under a
// proper coloring), so the longest path length bounds the largest
// all-distinct-color clique.
func ColorfulPathBound(g *graph.Graph, col *color.Coloring) int32 {
	n := g.N()
	if n == 0 {
		return 0
	}
	// Total order ≺: by color, ties by vertex id (Eden et al. [35]).
	order := make([]int32, n)
	for i := int32(0); i < n; i++ {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		ci, cj := col.Of(order[i]), col.Of(order[j])
		if ci != cj {
			return ci < cj
		}
		return order[i] < order[j]
	})
	rank := make([]int32, n)
	for i, v := range order {
		rank[v] = int32(i)
	}
	f := make([]int32, n)
	for i := range f {
		f[i] = 1
	}
	maxLen := int32(1)
	for _, u := range order {
		fu := f[u]
		if fu > maxLen {
			maxLen = fu
		}
		for _, w := range g.Neighbors(u) {
			if rank[w] > rank[u] && f[w] < fu+1 {
				f[w] = fu + 1
			}
		}
	}
	return maxLen
}

// Profile holds what the configured bound of an instance G' needs
// besides δ: the attribute counts, the a-only, b-only and mixed classes
// of a greedy colouring, and the statistic behind the extra bound.
// Bound then prices any δ in O(1), so one profile serves every query
// over the same instance.
type Profile struct {
	extra      Extra
	na, nb     int32 // a- and b-vertices
	ca, cb, cm int32 // a-only, b-only and mixed colour classes
	// stat is the extra's statistic: the degeneracy, h-index, colorful
	// degeneracy or colorful h-index of G', or its colorful path length.
	stat int32
}

// NewProfile colours g greedily, as the paper prescribes for
// instance-local bounds, and records the statistics of the bound that
// extra configures.
func NewProfile(g *graph.Graph, extra Extra) Profile {
	p := Profile{extra: extra}
	if g.N() == 0 {
		return p
	}
	col := color.Greedy(g)
	p.na, p.nb = g.AttrCount()
	p.ca, p.cb, p.cm = colorful.ClassCounts(g, nil, col)
	switch extra {
	case Degeneracy:
		p.stat = kcore.Degeneracy(g)
	case HIndex:
		p.stat = kcore.HIndex(g)
	case ColorfulDegeneracy:
		p.stat = colorful.Degeneracy(g, col)
	case ColorfulHIndex:
		p.stat = colorful.HIndex(g, col)
	case ColorfulPath:
		p.stat = ColorfulPathBound(g, col)
	}
	return p
}

// Bound returns the configured upper bound at tolerance delta: the
// minimum of the advanced group ubAD and the extra bound.
func (p Profile) Bound(delta int32) int32 {
	ub := AD(p.na, p.nb, p.ca, p.cb, p.cm, delta)
	switch p.extra {
	case Degeneracy, HIndex:
		ub = min(ub, cliqueBound(p.stat))
	case ColorfulDegeneracy, ColorfulHIndex:
		ub = min(ub, fairBound(p.stat, delta))
	case ColorfulPath:
		ub = min(ub, p.stat)
	}
	return ub
}

// Evaluate computes the configured upper bound of an instance whose
// induced subgraph is g: the minimum of the advanced group ubAD and the
// selected extra bound.
func Evaluate(g *graph.Graph, delta int32, extra Extra) int32 {
	return NewProfile(g, extra).Bound(delta)
}
