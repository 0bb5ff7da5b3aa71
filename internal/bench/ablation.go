package bench

import (
	"fmt"
	"time"

	"fairclique/internal/core"
	"fairclique/internal/gen"
)

// AblationRow is one row of the reduction/pruning ablation: end-to-end
// time and search effort with individual features disabled.
type AblationRow struct {
	Dataset string
	Variant string
	Time    time.Duration
	Nodes   int64
	Size    int
}

// Ablation quantifies what each design lever buys on every dataset at
// default parameters: the full configuration, then reduction disabled,
// bounds disabled, heuristic disabled, and everything disabled. It has
// no direct counterpart figure in the paper but substantiates its
// §III/§IV/§V contribution claims at this repository's scale.
func Ablation(cfg Config) []AblationRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Ablation — contribution of each design lever (default k, δ)\n\n")
	fmt.Fprintf(w, "| dataset | variant | time (ms) | branch nodes | size |\n|---|---|---|---|---|\n")
	var rows []AblationRow
	for _, d := range gen.Datasets() {
		g := d.Build(cfg.scale())
		extra := bestExtraFor(d.Name)
		variants := []struct {
			name string
			opt  core.Options
		}{
			{"full", core.Options{K: d.DefaultK, Delta: d.DefaultDelta,
				UseBounds: true, Extra: extra, UseHeuristic: true, MaxNodes: cfg.MaxNodes}},
			{"no-reduction", core.Options{K: d.DefaultK, Delta: d.DefaultDelta,
				UseBounds: true, Extra: extra, UseHeuristic: true, SkipReduction: true, MaxNodes: cfg.MaxNodes}},
			{"no-bounds", core.Options{K: d.DefaultK, Delta: d.DefaultDelta,
				UseHeuristic: true, MaxNodes: cfg.MaxNodes}},
			{"no-heuristic", core.Options{K: d.DefaultK, Delta: d.DefaultDelta,
				UseBounds: true, Extra: extra, MaxNodes: cfg.MaxNodes}},
			{"plain", core.Options{K: d.DefaultK, Delta: d.DefaultDelta, MaxNodes: cfg.MaxNodes}},
		}
		for _, v := range variants {
			t, res, err := runSearch(g, v.opt)
			if err != nil {
				panic(err)
			}
			row := AblationRow{Dataset: d.Name, Variant: v.name, Time: t,
				Nodes: res.Stats.Nodes, Size: res.Size()}
			rows = append(rows, row)
			fmt.Fprintf(w, "| %s | %s | %.2f | %d | %d |\n",
				row.Dataset, row.Variant, ms(row.Time), row.Nodes, row.Size)
		}
	}
	return rows
}
