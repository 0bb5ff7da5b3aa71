// Ablation benchmarks for the engine's design choices: what each
// reduction stage buys, how deep the expensive bounds should be
// evaluated, and what component-level parallelism contributes.
package fairclique_test

import (
	"fmt"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/core"
	"fairclique/internal/gen"
	"fairclique/internal/reduce"
)

// BenchmarkAblation_ReductionStages isolates each reduction: the
// enhanced colorful core alone, the colorful-support peeling alone,
// and its enhanced variant alone, on the same graph and coloring.
func BenchmarkAblation_ReductionStages(b *testing.B) {
	d, _ := gen.DatasetByName("pokec-sim")
	g := d.Build(benchScale)
	col := color.Greedy(g)
	k := int32(d.DefaultK)
	b.Run("EnColorfulCore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduce.EnColorfulCore(g, col, k-1)
		}
	})
	b.Run("ColorfulSup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduce.ColorfulSup(g, col, k)
		}
	})
	b.Run("EnColorfulSup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduce.EnColorfulSup(g, col, k)
		}
	})
	b.Run("FullPipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduce.Pipeline(g, k)
		}
	})
}

// BenchmarkAblation_SearchWithoutReduction quantifies what the
// reduction pipeline saves end to end.
func BenchmarkAblation_SearchWithoutReduction(b *testing.B) {
	d, _ := gen.DatasetByName("dblp-sim")
	g := d.Build(benchScale)
	for _, skip := range []bool{false, true} {
		name := "with-reduction"
		if skip {
			name = "without-reduction"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.MaxRFC(g, core.Options{
					K: d.DefaultK, Delta: d.DefaultDelta,
					UseBounds: true, Extra: bounds.ColorfulDegeneracy,
					SkipReduction: skip,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Workers measures component-parallel search.
func BenchmarkAblation_Workers(b *testing.B) {
	d, _ := gen.DatasetByName("flixster-sim")
	g := d.Build(benchScale)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.MaxRFC(g, core.Options{
					K: 2, Delta: d.DefaultDelta,
					UseBounds: true, Extra: bounds.ColorfulDegeneracy,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ColorfulStructures compares the cost of the
// colorful machinery that the bounds are built from.
func BenchmarkAblation_ColorfulStructures(b *testing.B) {
	d, _ := gen.DatasetByName("aminer-sim")
	g := d.Build(benchScale)
	col := color.Greedy(g)
	b.Run("Degrees", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			colorful.ComputeDegrees(g, col)
		}
	})
	b.Run("KCore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			colorful.KCore(g, col, int32(d.DefaultK)-1)
		}
	})
	b.Run("EnhancedKCore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			colorful.EnhancedKCore(g, col, int32(d.DefaultK)-1)
		}
	})
	b.Run("Decompose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			colorful.Decompose(g, col)
		}
	})
	b.Run("HIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			colorful.HIndex(g, col)
		}
	})
}
