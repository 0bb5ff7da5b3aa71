package reduce

import (
	"testing"

	"fairclique/internal/color"
)

// The per-edge map fallback must agree exactly with the flat-array path
// for both support reductions.
func TestEdgeCounterMapFallbackEquivalence(t *testing.T) {
	setDenseCutoff(t, 0) // the counters live on the merge path
	g := random(99, 50, 0.3)
	col := color.Greedy(g)
	flatPlain := ColorfulSup(g, col, 3)
	flatEn := EnColorfulSup(g, col, 3)

	old := flatBudget
	flatBudget = 0
	defer func() { flatBudget = old }()

	plain := ColorfulSup(g, col, 3)
	en := EnColorfulSup(g, col, 3)
	for e := range plain.EdgeAlive {
		if plain.EdgeAlive[e] != flatPlain.EdgeAlive[e] {
			t.Fatalf("ColorfulSup diverges at edge %d", e)
		}
		if en.EdgeAlive[e] != flatEn.EdgeAlive[e] {
			t.Fatalf("EnColorfulSup diverges at edge %d", e)
		}
	}
}
