package reduce

import (
	"testing"

	"fairclique/internal/color"
	"fairclique/internal/colorful"
)

// The merge path's per-edge tally, forced onto its map path, must agree
// exactly with the flat path for both support reductions. At k = 1 and
// 2 they peel part of the graph, at k = 3 all of it.
func TestEdgeCounterMapFallbackEquivalence(t *testing.T) {
	setDenseCutoff(t, 0) // the tally lives on the merge path
	g := random(99, 50, 0.3)
	col := color.Greedy(g)
	for k := int32(1); k <= 3; k++ {
		flatPlain := ColorfulSup(g, col, k)
		flatEn := EnColorfulSup(g, col, k)

		old := colorful.FlatBudget
		colorful.FlatBudget = 0
		plain := ColorfulSup(g, col, k)
		en := EnColorfulSup(g, col, k)
		colorful.FlatBudget = old

		kept := 0
		for e := range plain.EdgeAlive {
			if plain.EdgeAlive[e] != flatPlain.EdgeAlive[e] {
				t.Fatalf("k=%d: ColorfulSup diverges at edge %d", k, e)
			}
			if en.EdgeAlive[e] != flatEn.EdgeAlive[e] {
				t.Fatalf("k=%d: EnColorfulSup diverges at edge %d", k, e)
			}
			if en.EdgeAlive[e] {
				kept++
			}
		}
		if k == 2 && (kept == 0 || kept == len(en.EdgeAlive)) {
			t.Fatalf("k=2: EnColorfulSup keeps %d of %d edges; want a partial peel", kept, len(en.EdgeAlive))
		}
	}
}
