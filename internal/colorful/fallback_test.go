package colorful

import (
	"testing"

	"fairclique/internal/color"
	"fairclique/internal/graph"
)

// withMapFallback runs fn with the flat-array budget forced to zero so
// every counter uses the per-vertex map path.
func withMapFallback(t *testing.T, fn func()) {
	t.Helper()
	old := FlatBudget
	FlatBudget = 0
	defer func() { FlatBudget = old }()
	fn()
}

// The map fallback must produce byte-identical results to the flat
// path for every colorful structure.
func TestMapFallbackEquivalence(t *testing.T) {
	g := random(42, 60, 0.25)
	col := color.Greedy(g)

	flatDeg := ComputeDegrees(g, col)
	flatCore := KCore(g, col, 2)
	flatEn := EnhancedKCore(g, col, 2)
	flatDecomp := Decompose(g, col)

	withMapFallback(t, func() {
		deg := ComputeDegrees(g, col)
		for v := int32(0); v < g.N(); v++ {
			if deg.Da[v] != flatDeg.Da[v] || deg.Db[v] != flatDeg.Db[v] {
				t.Fatalf("degrees diverge at %d", v)
			}
		}
		core := KCore(g, col, 2)
		en := EnhancedKCore(g, col, 2)
		for v := range core {
			if core[v] != flatCore[v] {
				t.Fatalf("kcore diverges at %d", v)
			}
			if en[v] != flatEn[v] {
				t.Fatalf("enhanced kcore diverges at %d", v)
			}
		}
		d := Decompose(g, col)
		for v := range d.Core {
			if d.Core[v] != flatDecomp.Core[v] {
				t.Fatalf("core numbers diverge at %d", v)
			}
		}
	})
}

// A tally of zero colours still counts colour 0, on both paths.
func TestCounterZeroColors(t *testing.T) {
	for _, tl := range []*Tally{NewTally(3, 0, false), mapTally(3, 0, true)} {
		if !tl.Add(0, graph.AttrA, 0) {
			t.Fatal("first Add should report the colour appearing")
		}
		if tl.count(0, graph.AttrA, 0) != 1 {
			t.Fatal("count after Add")
		}
		if !tl.Remove(0, graph.AttrA, 0) {
			t.Fatal("Remove to zero should report the colour vanishing")
		}
	}
}
