package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"fairclique/internal/core"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// CoreBenchGraph describes the benchmark instance of the core engine
// benchmark: a single connected component with more than 4096 vertices
// (a dense nucleus carrying the branching workload, welded to a long
// alternating cycle), so every measured run exercises the per-root
// rows — a list root whose root branches each build a row table over
// their own candidates — while remaining the worst case for
// component-level parallelism (one giant component).
type CoreBenchGraph struct {
	Name     string `json:"name"`
	Vertices int32  `json:"vertices"`
	Edges    int32  `json:"edges"`
}

// CoreBenchRun is one measured engine configuration.
type CoreBenchRun struct {
	Workers       int     `json:"workers"`
	Seconds       float64 `json:"seconds"`
	Nodes         int64   `json:"nodes"`
	NodesPerSec   float64 `json:"nodes_per_sec"`
	AllocsPerNode float64 `json:"allocs_per_node"`
	BestSize      int     `json:"best_size"`
}

// CoreBenchResult is the perf-trajectory record emitted as
// BENCH_core.json (make bench), so future engine changes have a
// baseline to compare against.
type CoreBenchResult struct {
	Graph           CoreBenchGraph `json:"graph"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	NumCPU          int            `json:"num_cpu"`
	Runs            []CoreBenchRun `json:"runs"`
	SpeedupW4OverW1 float64        `json:"speedup_w4_over_w1"`
	// Grid, when present, is the multi-query session experiment
	// (`benchmark -exp grid`): the same instance's 9-cell (k, δ) grid
	// answered by one warm session versus independent Find calls.
	Grid *GridBenchResult `json:"grid,omitempty"`
	// Delta, when present, is the dynamic-session experiment
	// (`benchmark -exp delta`): single-edge Apply+requery on a warm
	// session versus NewSession+requery on the mutated graph.
	Delta *DeltaBenchResult `json:"delta,omitempty"`
	// Sched, when present, is the parallel-search experiment
	// (`benchmark -exp sched`): the grid answered serially and with
	// each cell's search split across 4 workers.
	Sched *SchedBenchResult `json:"sched,omitempty"`
	// Ingest, when present, is the paper-scale ingest experiment
	// (`benchmark -exp ingest`): SNAP text → streaming CSR → degeneracy
	// pre-prune → component-parallel reduction → search on the
	// reproducible multi-million-edge instance.
	Ingest *IngestBenchResult `json:"ingest,omitempty"`
	// Anytime, when present, is the anytime-search experiment
	// (`benchmark -exp anytime`): the gap-vs-budget curve — MaxNodes
	// runs at fractions of the exact run's node count, each with its
	// incumbent size and certified optimality gap.
	Anytime *AnytimeBenchResult `json:"anytime,omitempty"`
	// Enum, when present, is the enumeration experiment
	// (`benchmark -exp enum`): the engine's collect-at-optimum
	// enumeration versus the Bron–Kerbosch all-optima baseline on the
	// same cell, set-equality verified, plus the diversified top-r
	// coverage comparison.
	Enum *EnumBenchResult `json:"enum,omitempty"`
	// PeakAllocBytes is the sampled heap-allocation high-water mark
	// across the measured engine runs (runtime.ReadMemStats).
	PeakAllocBytes uint64 `json:"peak_alloc_bytes"`
}

// coreBenchInstance builds the deterministic single-giant-component
// instance — gen.BigComponentGiant, the definition shared with the
// per-root-vs-slice benchmark in internal/core.
func coreBenchInstance(scale float64) (*graph.Graph, CoreBenchGraph) {
	g := gen.BigComponentGiant(scale)
	return g, CoreBenchGraph{Name: "bigcomp-giant", Vertices: g.N(), Edges: g.M()}
}

// CoreBench measures the branch-and-bound engine on the giant-component
// instance at Workers 1 and 4: wall clock, node throughput and heap
// allocations per node (end to end, so per-component setup is included
// and amortized).
func CoreBench(cfg Config) (res CoreBenchResult) {
	g, desc := coreBenchInstance(cfg.scale())
	res = CoreBenchResult{
		Graph:      desc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	opt := core.Options{K: 2, Delta: 4, SkipReduction: true, MaxNodes: cfg.MaxNodes}
	sampler := startPeakSampler()
	defer func() { res.PeakAllocBytes = sampler.Stop() }()
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		// Warm-up run, then best-of-3 wall clock.
		if _, err := core.MaxRFC(g, opt); err != nil {
			panic(err)
		}
		run := CoreBenchRun{Workers: workers}
		var ms0, ms1 runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			r, err := core.MaxRFC(g, opt)
			elapsed := time.Since(start).Seconds()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				panic(err)
			}
			if run.Seconds == 0 || elapsed < run.Seconds {
				run.Seconds = elapsed
				run.Nodes = r.Stats.Nodes
				run.NodesPerSec = float64(r.Stats.Nodes) / elapsed
				run.AllocsPerNode = float64(ms1.Mallocs-ms0.Mallocs) / float64(r.Stats.Nodes)
				run.BestSize = r.Size()
			}
		}
		res.Runs = append(res.Runs, run)
	}
	if len(res.Runs) == 2 && res.Runs[1].Seconds > 0 {
		res.SpeedupW4OverW1 = res.Runs[0].Seconds / res.Runs[1].Seconds
	}
	return res
}

// WriteCoreBench runs CoreBench and writes the JSON record. When
// baselinePath is non-empty the fresh result is also compared against
// the committed record at that path (see CompareCoreBench); a >10%
// nodes/sec regression is returned as an error so `make bench-check`
// fails loudly.
func WriteCoreBench(cfg Config, w io.Writer, baselinePath string) error {
	res := CoreBench(cfg)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if baselinePath == "" {
		return nil
	}
	baseline, err := LoadCoreBench(baselinePath)
	if err != nil {
		return fmt.Errorf("load baseline: %w", err)
	}
	return CompareCoreBench(baseline, res, os.Stderr)
}

// LoadCoreBench reads a committed BENCH_core.json record.
func LoadCoreBench(path string) (CoreBenchResult, error) {
	var res CoreBenchResult
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	return res, json.Unmarshal(data, &res)
}

// coreBenchRegressionTolerance is the nodes/sec fraction below the
// baseline at which CompareCoreBench reports a regression.
const coreBenchRegressionTolerance = 0.10

// CompareCoreBench prints a delta table of current vs baseline and
// returns an error when any matching workers configuration regresses
// nodes/sec by more than coreBenchRegressionTolerance. Records from a
// different instance (the benchmark graph changed between commits) are
// reported but not gated — the numbers would not be comparable.
func CompareCoreBench(baseline, current CoreBenchResult, w io.Writer) error {
	if baseline.Graph != current.Graph {
		fmt.Fprintf(w, "bench-check: baseline instance %s (%dv/%de) differs from current %s (%dv/%de); regression gate skipped\n",
			baseline.Graph.Name, baseline.Graph.Vertices, baseline.Graph.Edges,
			current.Graph.Name, current.Graph.Vertices, current.Graph.Edges)
		return nil
	}
	base := make(map[int]CoreBenchRun, len(baseline.Runs))
	for _, run := range baseline.Runs {
		base[run.Workers] = run
	}
	fmt.Fprintf(w, "bench-check: %s (%d vertices, %d edges)\n",
		current.Graph.Name, current.Graph.Vertices, current.Graph.Edges)
	fmt.Fprintf(w, "%-8s %16s %16s %8s\n", "workers", "baseline nodes/s", "current nodes/s", "delta")
	var regressed []int
	for _, run := range current.Runs {
		b, ok := base[run.Workers]
		if !ok || b.NodesPerSec <= 0 {
			fmt.Fprintf(w, "%-8d %16s %16.0f %8s\n", run.Workers, "-", run.NodesPerSec, "new")
			continue
		}
		delta := run.NodesPerSec/b.NodesPerSec - 1
		fmt.Fprintf(w, "%-8d %16.0f %16.0f %+7.1f%%\n", run.Workers, b.NodesPerSec, run.NodesPerSec, 100*delta)
		if delta < -coreBenchRegressionTolerance {
			regressed = append(regressed, run.Workers)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("bench-check: nodes/sec regressed >%.0f%% vs baseline for workers %v",
			100*coreBenchRegressionTolerance, regressed)
	}
	return nil
}
