package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fairclique/internal/core"
)

// AnytimePoint is one node-budgeted run on the gap-vs-budget curve.
type AnytimePoint struct {
	MaxNodes   int64   `json:"max_nodes"`
	Seconds    float64 `json:"seconds"`
	Size       int     `json:"size"`
	UpperBound int     `json:"upper_bound"`
	Gap        int     `json:"gap"`
	Exact      bool    `json:"exact"`
	Nodes      int64   `json:"nodes"`
}

// AnytimeBenchResult is the anytime-search record merged into
// BENCH_core.json (`benchmark -exp anytime`): the exact reference run
// on the giant-component instance, then node-budgeted runs at
// fractions of the exact run's node count, each reporting its
// incumbent and certified gap. The curve is the receipt that budgets
// buy monotone utility: tiny budgets return a heuristic-quality
// incumbent with a sound certificate, and the gap closes toward zero
// as the budget approaches the exact tree. The search is serial, so
// every point's (nodes, size, upper bound) is the same on every run.
type AnytimeBenchResult struct {
	Graph        CoreBenchGraph `json:"graph"`
	ExactSeconds float64        `json:"exact_seconds"`
	ExactSize    int            `json:"exact_size"`
	ExactNodes   int64          `json:"exact_nodes"`
	Points       []AnytimePoint `json:"points"`
}

// anytimeBudgetFractions are the budget points, as fractions of the
// exact run's branch nodes; each point runs as Options.MaxNodes.
var anytimeBudgetFractions = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.00}

// anytimeOptions is the anytime experiment's search: the core
// benchmark's (k, δ) cell with both bound groups and the heuristic.
var anytimeOptions = core.Options{K: 2, Delta: 4, SkipReduction: true, UseBounds: true, UseHeuristic: true}

// AnytimeBench measures the gap-vs-budget curve on the same instance
// and (k, δ) cell as the core engine benchmark. It hard-fails when the
// unbudgeted run reports inexact, when any budgeted run breaks the
// sandwich incumbent <= exact optimum <= certificate, or when a
// budgeted run claims exactness at the wrong size — the benchmark
// doubles as an end-to-end correctness gate at paper scale.
func AnytimeBench(cfg Config) (AnytimeBenchResult, error) {
	g, desc := coreBenchInstance(cfg.scale())
	res := AnytimeBenchResult{Graph: desc}
	opt := anytimeOptions

	// Reference: no budget. This run must be exact with a zero gap —
	// the anytime machinery must stay dormant without a budget.
	start := time.Now()
	exact, err := core.MaxRFC(g, opt)
	if err != nil {
		return res, err
	}
	res.ExactSeconds = time.Since(start).Seconds()
	res.ExactSize = exact.Size()
	res.ExactNodes = exact.Stats.Nodes
	if exact.Stats.Aborted {
		return res, fmt.Errorf("anytime bench: unbudgeted run reported Exact == false")
	}
	if exact.UpperBound != int32(exact.Size()) {
		return res, fmt.Errorf("anytime bench: exact run gap %d != 0", exact.UpperBound-int32(exact.Size()))
	}

	for _, frac := range anytimeBudgetFractions {
		bopt := opt
		bopt.MaxNodes = max(int64(frac*float64(res.ExactNodes)), 1)
		start := time.Now()
		r, err := core.MaxRFC(g, bopt)
		if err != nil {
			return res, err
		}
		p := AnytimePoint{
			MaxNodes:   bopt.MaxNodes,
			Seconds:    time.Since(start).Seconds(),
			Size:       r.Size(),
			UpperBound: int(r.UpperBound),
			Gap:        int(r.UpperBound) - r.Size(),
			Exact:      !r.Stats.Aborted,
			Nodes:      r.Stats.Nodes,
		}
		if p.Size > res.ExactSize || p.UpperBound < res.ExactSize {
			return res, fmt.Errorf("anytime bench: budget of %d nodes broke the sandwich: size=%d ub=%d optimum=%d",
				p.MaxNodes, p.Size, p.UpperBound, res.ExactSize)
		}
		if p.Exact && p.Size != res.ExactSize {
			return res, fmt.Errorf("anytime bench: budget of %d nodes claims exact at size %d; optimum is %d",
				p.MaxNodes, p.Size, res.ExactSize)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// WriteAnytimeBench runs AnytimeBench, writes its JSON record to w and,
// when mergePath names an existing core record, embeds it under
// "anytime" (atomically, like the grid record).
func WriteAnytimeBench(cfg Config, w io.Writer, mergePath string) error {
	res, err := AnytimeBench(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if mergePath == "" {
		return nil
	}
	return mergeCoreBlock(mergePath, "anytime", res)
}
