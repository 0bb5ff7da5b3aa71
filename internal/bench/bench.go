// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§VI) on the synthetic dataset
// stand-ins — Fig. 4/5 (graph reduction), Table II (upper-bound
// comparison), Fig. 6/7 (search-algorithm comparison), Fig. 8
// (heuristic effectiveness), Fig. 9 (scalability) and Fig. 10 (case
// studies). Each experiment prints a Markdown table mirroring the
// paper's rows/series and returns structured results for tests.
package bench

import (
	"fmt"
	"io"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/heuristic"
	"fairclique/internal/reduce"
	"fairclique/internal/rng"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = default laptop scale).
	Scale float64
	// Out receives the printed tables; nil discards output.
	Out io.Writer
	// MaxNodes caps branch nodes per search (0 = unlimited), a safety
	// valve for very small scales where reductions keep less structure.
	MaxNodes int64
	// GridSpec overrides the grid experiment's cell spec (the
	// internal/cli range syntax, e.g. "k=2..4,delta=1..3"); empty means
	// the canonical 9-cell grid.
	GridSpec string
	// SchedWorkersCurve lists the worker counts of the sched
	// experiment's scaling curve; nil means 1, 2, 4, 8.
	SchedWorkersCurve []int
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// ReductionRow is one (dataset, k) cell of Fig. 4 / Fig. 5: the
// original size and the sizes after each reduction stage.
type ReductionRow struct {
	Dataset      string
	K            int
	OrigV, OrigE int32
	Stages       []reduce.StageStats
}

// runReduction measures the cumulative pipeline stages for one (g, k).
func runReduction(name string, g *graph.Graph, k int) ReductionRow {
	stats := reduce.Stages(g, int32(k))
	return ReductionRow{
		Dataset: name,
		K:       k,
		OrigV:   g.N(),
		OrigE:   g.M(),
		Stages:  stats,
	}
}

func printReductionRows(w io.Writer, rows []ReductionRow) {
	fmt.Fprintf(w, "| dataset | k | orig V | orig E | EnColorfulCore V/E | ColorfulSup V/E | EnColorfulSup V/E |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d |", r.Dataset, r.K, r.OrigV, r.OrigE)
		for _, s := range r.Stages {
			fmt.Fprintf(w, " %d/%d |", s.Vertices, s.Edges)
		}
		fmt.Fprintln(w)
	}
}

// Fig4 reproduces Figure 4: the three reductions on the five
// generated-attribute stand-ins, varying k over each dataset's range.
func Fig4(cfg Config) []ReductionRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Fig. 4 — graph reduction, generated attributes (vary k)\n\n")
	var rows []ReductionRow
	for _, d := range gen.Datasets() {
		if d.Name == "aminer-sim" {
			continue // Fig. 5's dataset
		}
		g := d.Build(cfg.scale())
		for _, k := range d.Ks {
			rows = append(rows, runReduction(d.Name, g, k))
		}
	}
	printReductionRows(w, rows)
	return rows
}

// Fig5 reproduces Figure 5: the same reduction comparison on the
// real-attribute stand-in (aminer-sim with correlated attributes).
func Fig5(cfg Config) []ReductionRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Fig. 5 — graph reduction, real-style attributes (aminer-sim, vary k)\n\n")
	d, _ := gen.DatasetByName("aminer-sim")
	g := d.Build(cfg.scale())
	var rows []ReductionRow
	for _, k := range d.Ks {
		rows = append(rows, runReduction(d.Name, g, k))
	}
	printReductionRows(w, rows)
	return rows
}

// UBRow is one (dataset, varied-parameter) row of Table II: the MaxRFC
// runtime, search-tree size and component-root prunes under each of the
// six upper-bound configurations.
type UBRow struct {
	Dataset    string
	Vary       string // "k" or "delta"
	Value      int
	Times      []time.Duration // indexed as bounds.Extras()
	Nodes      []int64         // branch-and-bound nodes, indexed as Times
	RootPrunes []int64         // components the Table II bound pruned, indexed as Times
	Size       int             // optimum size (identical across configs)
}

func runSearch(g *graph.Graph, opt core.Options) (time.Duration, *core.Result, error) {
	start := time.Now()
	res, err := core.MaxRFC(g, opt)
	return time.Since(start), res, err
}

// Table2 reproduces Table II: MaxRFC+ub with each bound configuration,
// varying k (dataset-specific range) and δ (1..5), per dataset.
func Table2(cfg Config) []UBRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Table II — MaxRFC with different upper bounds (ms / nodes / root prunes)\n\n")
	fmt.Fprintf(w, "| dataset | vary | value |")
	for _, e := range bounds.Extras() {
		fmt.Fprintf(w, " %s |", e)
	}
	fmt.Fprintf(w, " size |\n|---|---|---|---|---|---|---|---|---|---|\n")
	var rows []UBRow
	for _, d := range gen.Datasets() {
		g := d.Build(cfg.scale())
		for _, k := range d.Ks {
			rows = append(rows, table2Row(w, cfg, g, d.Name, "k", k, k, d.DefaultDelta))
		}
		for delta := 1; delta <= 5; delta++ {
			rows = append(rows, table2Row(w, cfg, g, d.Name, "delta", delta, d.DefaultK, delta))
		}
	}
	return rows
}

func table2Row(w io.Writer, cfg Config, g *graph.Graph, name, vary string, value, k, delta int) UBRow {
	row := UBRow{Dataset: name, Vary: vary, Value: value}
	for _, e := range bounds.Extras() {
		t, res, err := runSearch(g, core.Options{
			K: k, Delta: delta,
			UseBounds: true, Extra: e,
			MaxNodes: cfg.MaxNodes,
		})
		if err != nil {
			panic(err) // options are internally constructed; cannot fail
		}
		row.Times = append(row.Times, t)
		row.Nodes = append(row.Nodes, res.Stats.Nodes)
		row.RootPrunes = append(row.RootPrunes, res.Stats.BoundPrunes)
		row.Size = res.Size()
	}
	fmt.Fprintf(w, "| %s | %s | %d |", name, vary, value)
	for i, t := range row.Times {
		fmt.Fprintf(w, " %.2f / %d / %d |", ms(t), row.Nodes[i], row.RootPrunes[i])
	}
	fmt.Fprintf(w, " %d |\n", row.Size)
	return row
}

// AlgoRow is one point of Fig. 6 / Fig. 7: the three algorithm
// variants' runtimes at a parameter setting.
type AlgoRow struct {
	Dataset        string
	Vary           string
	Value          int
	TPlain, TUB    time.Duration
	TUBHeur        time.Duration
	Size, HeurSeed int
	// NodesPlain and NodesUBHeur are the branch-and-bound node counts
	// of the unpruned and fully-pruned variants — the scale-independent
	// view of what the bounds and the heuristic seed save.
	NodesPlain, NodesUBHeur int64
}

// bestExtraFor mirrors §VI-B: ubcp for Themarker, Google and Pokec,
// ubcd for the others.
func bestExtraFor(dataset string) bounds.Extra {
	switch dataset {
	case "themarker-sim", "google-sim", "pokec-sim":
		return bounds.ColorfulPath
	}
	return bounds.ColorfulDegeneracy
}

func algoRow(cfg Config, g *graph.Graph, name, vary string, value, k, delta int) AlgoRow {
	extra := bestExtraFor(name)
	row := AlgoRow{Dataset: name, Vary: vary, Value: value}
	var res *core.Result
	row.TPlain, res, _ = runSearch(g, core.Options{K: k, Delta: delta, MaxNodes: cfg.MaxNodes})
	row.TUB, _, _ = runSearch(g, core.Options{K: k, Delta: delta, UseBounds: true, Extra: extra, MaxNodes: cfg.MaxNodes})
	var resH *core.Result
	row.TUBHeur, resH, _ = runSearch(g, core.Options{K: k, Delta: delta, UseBounds: true, Extra: extra, UseHeuristic: true, MaxNodes: cfg.MaxNodes})
	row.Size = res.Size()
	row.HeurSeed = resH.Stats.HeuristicSize
	row.NodesPlain = res.Stats.Nodes
	row.NodesUBHeur = resH.Stats.Nodes
	return row
}

func printAlgoRows(w io.Writer, rows []AlgoRow) {
	fmt.Fprintf(w, "| dataset | vary | value | MaxRFC (ms) | MaxRFC+ub (ms) | MaxRFC+ub+HeurRFC (ms) | nodes plain | nodes +ub+heur | size |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %d | %.2f | %.2f | %.2f | %d | %d | %d |\n",
			r.Dataset, r.Vary, r.Value, ms(r.TPlain), ms(r.TUB), ms(r.TUBHeur), r.NodesPlain, r.NodesUBHeur, r.Size)
	}
}

// Fig6 reproduces Figure 6: MaxRFC vs MaxRFC+ub vs MaxRFC+ub+HeurRFC
// on the five generated-attribute stand-ins, varying k and δ.
func Fig6(cfg Config) []AlgoRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Fig. 6 — search algorithm comparison (vary k, vary δ)\n\n")
	var rows []AlgoRow
	for _, d := range gen.Datasets() {
		if d.Name == "aminer-sim" {
			continue
		}
		g := d.Build(cfg.scale())
		for _, k := range d.Ks {
			rows = append(rows, algoRow(cfg, g, d.Name, "k", k, k, d.DefaultDelta))
		}
		for delta := 1; delta <= 5; delta++ {
			rows = append(rows, algoRow(cfg, g, d.Name, "delta", delta, d.DefaultK, delta))
		}
	}
	printAlgoRows(w, rows)
	return rows
}

// Fig7 reproduces Figure 7: the same comparison on aminer-sim.
func Fig7(cfg Config) []AlgoRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Fig. 7 — search algorithm comparison on aminer-sim\n\n")
	d, _ := gen.DatasetByName("aminer-sim")
	g := d.Build(cfg.scale())
	var rows []AlgoRow
	for _, k := range d.Ks {
		rows = append(rows, algoRow(cfg, g, d.Name, "k", k, k, d.DefaultDelta))
	}
	for delta := 1; delta <= 5; delta++ {
		rows = append(rows, algoRow(cfg, g, d.Name, "delta", delta, d.DefaultK, delta))
	}
	printAlgoRows(w, rows)
	return rows
}

// SizeRow is one bar pair of Fig. 8: heuristic size vs exact size.
type SizeRow struct {
	Dataset   string
	HeurSize  int
	ExactSize int
}

// Fig8 reproduces Figure 8: the size of the fair clique found by
// HeurRFC against the exact maximum, per dataset at a generous δ so the
// planted community is reachable.
func Fig8(cfg Config) []SizeRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Fig. 8 — HeurRFC size vs exact MRFC size\n\n")
	fmt.Fprintf(w, "| dataset | HeurRFC size | MRFC size | gap |\n|---|---|---|---|\n")
	var rows []SizeRow
	for _, d := range gen.Datasets() {
		g := d.Build(cfg.scale())
		k, delta := fig8Params(d)
		h := heuristic.HeurRFC(g, int32(k), int32(delta))
		_, res, err := runSearch(g, core.Options{
			K: k, Delta: delta,
			UseBounds: true, Extra: bestExtraFor(d.Name), UseHeuristic: true,
			MaxNodes: cfg.MaxNodes,
		})
		if err != nil {
			panic(err)
		}
		row := SizeRow{Dataset: d.Name, HeurSize: len(h.Clique), ExactSize: res.Size()}
		rows = append(rows, row)
		fmt.Fprintf(w, "| %s | %d | %d | %d |\n", d.Name, row.HeurSize, row.ExactSize, row.ExactSize-row.HeurSize)
	}
	return rows
}

// fig8Params picks the effectiveness-experiment parameters: the default
// k with a δ wide enough that the planted community qualifies.
func fig8Params(d *gen.Dataset) (int, int) {
	return d.DefaultK, 5
}

// ScaleRow is one point of Fig. 9: runtimes on a random 20-100%
// subgraph.
type ScaleRow struct {
	Vary    string // "m" or "n"
	Percent int
	TPlain  time.Duration
	TUB     time.Duration
	TUBHeur time.Duration
}

// Fig9 reproduces Figure 9 (scalability): flixster-sim subsampled to
// 20-100% of its vertices and, separately, of its edges.
func Fig9(cfg Config) []ScaleRow {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Fig. 9 — scalability on flixster-sim (random subgraphs)\n\n")
	fmt.Fprintf(w, "| vary | %% | MaxRFC (ms) | MaxRFC+ub (ms) | MaxRFC+ub+HeurRFC (ms) |\n|---|---|---|---|---|\n")
	d, _ := gen.DatasetByName("flixster-sim")
	g := d.Build(cfg.scale())
	k, delta := d.DefaultK, d.DefaultDelta
	r := rng.New(4242)
	var rows []ScaleRow

	vertPerm := r.Perm(int(g.N()))
	edgePerm := r.Perm(int(g.M()))
	all := make([]bool, g.N())
	for v := range all {
		all[v] = true
	}
	for _, pct := range []int{20, 40, 60, 80, 100} {
		// Vertex-induced subgraph.
		nKeep := int(g.N()) * pct / 100
		keep := make([]int32, nKeep)
		for i := 0; i < nKeep; i++ {
			keep[i] = int32(vertPerm[i])
		}
		sub := graph.Induce(g, keep)
		rows = append(rows, scaleRow(cfg, w, sub.G, "n", pct, k, delta))

		// Edge subgraph on all vertices.
		eKeep := make([]bool, g.M())
		for _, e := range edgePerm[:int(g.M())*pct/100] {
			eKeep[e] = true
		}
		es := graph.InduceAlive(g, all, eKeep)
		rows = append(rows, scaleRow(cfg, w, es.G, "m", pct, k, delta))
	}
	return rows
}

func scaleRow(cfg Config, w io.Writer, g *graph.Graph, vary string, pct, k, delta int) ScaleRow {
	extra := bestExtraFor("flixster-sim")
	row := ScaleRow{Vary: vary, Percent: pct}
	row.TPlain, _, _ = runSearch(g, core.Options{K: k, Delta: delta, MaxNodes: cfg.MaxNodes})
	row.TUB, _, _ = runSearch(g, core.Options{K: k, Delta: delta, UseBounds: true, Extra: extra, MaxNodes: cfg.MaxNodes})
	row.TUBHeur, _, _ = runSearch(g, core.Options{K: k, Delta: delta, UseBounds: true, Extra: extra, UseHeuristic: true, MaxNodes: cfg.MaxNodes})
	fmt.Fprintf(w, "| %s | %d | %.2f | %.2f | %.2f |\n", vary, pct, ms(row.TPlain), ms(row.TUB), ms(row.TUBHeur))
	return row
}

// CaseResult is the outcome of one Fig. 10 case study.
type CaseResult struct {
	Name    string
	Size    int
	CountA  int
	CountB  int
	Members []string
}

// RunCaseStudies reproduces Figure 10: the maximum fair clique on the
// four labelled domain graphs at k=5, δ=3.
func RunCaseStudies(cfg Config) []CaseResult {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Fig. 10 — case studies (k=5, δ=3)\n\n")
	var out []CaseResult
	for _, cs := range gen.CaseStudies() {
		_, res, err := runSearch(cs.Graph, core.Options{
			K: cs.K, Delta: cs.Delta,
			UseBounds: true, Extra: bounds.ColorfulDegeneracy, UseHeuristic: true,
			MaxNodes: cfg.MaxNodes,
		})
		if err != nil {
			panic(err)
		}
		na, nb := cs.Graph.CountAttrs(res.Clique)
		cr := CaseResult{Name: cs.Name, Size: res.Size(), CountA: na, CountB: nb}
		for _, v := range res.Clique {
			cr.Members = append(cr.Members, cs.Labels[v])
		}
		out = append(out, cr)
		fmt.Fprintf(w, "### %s\n\n%d members: %d %s, %d %s\n\n",
			cs.Name, cr.Size, na, cs.AttrNames[0], nb, cs.AttrNames[1])
		for _, m := range cr.Members {
			fmt.Fprintf(w, "- %s\n", m)
		}
		fmt.Fprintln(w)
	}
	return out
}

// RunAll executes every experiment in paper order.
func RunAll(cfg Config) {
	w := cfg.out()
	fmt.Fprintf(w, "# Experiment suite (scale=%.2f)\n", cfg.scale())
	TableI(cfg)
	Fig4(cfg)
	Fig5(cfg)
	Table2(cfg)
	Fig6(cfg)
	Fig7(cfg)
	Fig8(cfg)
	Fig9(cfg)
	RunCaseStudies(cfg)
	Ablation(cfg)
}

// TableI mirrors Table I: the dataset stand-in statistics.
func TableI(cfg Config) {
	w := cfg.out()
	fmt.Fprintf(w, "\n## Table I — dataset stand-ins\n\n")
	fmt.Fprintf(w, "| dataset | n | m | dmax | attr a | attr b |\n|---|---|---|---|---|---|\n")
	for _, d := range gen.Datasets() {
		g := d.Build(cfg.scale())
		s := graph.Summarize(g)
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d |\n", d.Name, s.N, s.M, s.MaxDeg, s.NumA, s.NumB)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
