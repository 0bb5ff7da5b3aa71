// Command benchmark regenerates the paper's evaluation tables and
// figures (§VI) on the synthetic dataset stand-ins and prints them as
// Markdown. EXPERIMENTS.md is produced by piping this command's output.
//
// Usage:
//
//	benchmark                 # the full suite at scale 1.0
//	benchmark -exp fig4       # one experiment
//	benchmark -scale 0.25     # quarter-scale datasets (much faster)
//	benchmark -out results.md
//
// Experiments: table1, fig4, fig5, table2, fig6, fig7, fig8, fig9,
// casestudies, ablation, all. Seven extra experiments always emit JSON
// and feed BENCH_core.json, the repo's perf trajectory: "core"
// benchmarks the branch-and-bound engine itself (Workers 1 vs 4 on a
// single-giant-component graph), "grid" measures the multi-query
// session — a (k, δ) grid answered by one warm Session versus
// independent Find calls (-grid overrides the canonical 9 cells) —
// "delta" measures the dynamic session: a single-edge Apply plus
// requery on a warm Session versus NewSession plus requery on the
// mutated graph, "sched" measures parallel search: the same grid
// serial and with each cell's search on the private root split at 4
// workers, plus a worker scaling curve (-workers-curve, default
// 1,2,4,8; -min-speedup X exits 1 unless the W4/W1 speedup beats X —
// the bench-parallel CI gate), and "ingest" measures the
// paper-scale pipeline: SNAP text through the streaming CSR builder,
// the degeneracy pre-prune and the component-parallel reduction on the
// reproducible multi-million-edge instance (-max-mem-ratio gates the
// deterministic streaming high-water against the final CSR bytes,
// -min-speedup gates parallel-over-serial reduction, -graph-dir caches
// the generated SNAP pair), and "anytime" measures the gap-vs-budget
// curve: deadline-budgeted searches at fractions of the exact wall
// clock, each reporting its incumbent and certified optimality gap (hard-failing if a zero-deadline run is
// inexact or a budgeted run breaks the sandwich), and "enum" measures
// enumeration: the engine's collect-at-optimum KindEnumerateAll versus
// the Bron–Kerbosch all-optima baseline on the same cell — hard-failing
// unless both return the identical clique set — plus the diversified
// top-r cut, which must cover strictly more distinct vertices than the
// first-r baseline (-min-speedup gates the engine-over-baseline
// wall-clock ratio). Use -merge
// BENCH_core.json to embed the records; `make bench` runs all seven.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"fairclique/internal/bench"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run")
		scale       = flag.Float64("scale", 1.0, "dataset scale factor")
		out         = flag.String("out", "", "output path (default stdout)")
		format      = flag.String("format", "markdown", "output format: markdown, json or chart (json/chart run the full suite)")
		maxNodes    = flag.Int64("max-nodes", 0, "branch-node cap per search (0 = unlimited)")
		baseline    = flag.String("baseline", "", "for -exp core: committed BENCH_core.json to diff against; exits 1 on a >10% nodes/sec regression")
		merge       = flag.String("merge", "", "for -exp grid/delta/sched: existing BENCH_core.json to embed the record into")
		gridSpec    = flag.String("grid", "", "for -exp grid/sched: override the cell spec, e.g. 'k=2..4,delta=1..3[,mode=weak|strong]'")
		minSpeedup  = flag.Float64("min-speedup", 0, "for -exp sched/ingest/enum: exit 1 unless the measured speedup strictly exceeds this (0 = no gate)")
		workersCrv  = flag.String("workers-curve", "", "for -exp sched: comma-separated worker counts of the scaling curve (default 1,2,4,8)")
		maxMemRatio = flag.Float64("max-mem-ratio", 0, "for -exp ingest: exit 1 unless the streaming peak stays under this multiple of the final CSR bytes (0 = no gate)")
		graphDir    = flag.String("graph-dir", "", "for -exp ingest: cache the generated SNAP instance pair in this directory")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	cfg := bench.Config{Scale: *scale, Out: w, MaxNodes: *maxNodes, GridSpec: *gridSpec}
	if *workersCrv != "" {
		for _, f := range strings.Split(*workersCrv, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "benchmark: bad -workers-curve entry %q\n", f)
				os.Exit(2)
			}
			cfg.SchedWorkersCurve = append(cfg.SchedWorkersCurve, n)
		}
	}

	start := time.Now()
	if *exp == "core" {
		// The engine benchmark is JSON-only regardless of -format: it is
		// a machine-readable perf record, not a paper table.
		if err := bench.WriteCoreBench(cfg, w, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: core engine bench finished in %v\n", time.Since(start))
		return
	}
	if *exp == "grid" {
		// The multi-query amortization experiment: one session FindGrid
		// versus independent Find calls on the same (k, δ) grid (-grid
		// overrides the canonical 9 cells). JSON-only; -merge embeds it
		// into the committed core record.
		if err := bench.WriteGridBench(cfg, w, *merge); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: grid session bench finished in %v\n", time.Since(start))
		return
	}
	if *exp == "delta" {
		// The dynamic-session experiment: single-edge Apply+requery on a
		// warm session versus NewSession+requery on the mutated graph.
		// JSON-only; -merge embeds it under "delta".
		if err := bench.WriteDeltaBench(cfg, w, *merge); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: delta session bench finished in %v\n", time.Since(start))
		return
	}
	if *exp == "sched" {
		// The parallel-search experiment: the grid serial vs split at
		// 4 workers. JSON-only; -merge embeds it under "sched";
		// -min-speedup is the CI parallel gate.
		if err := bench.WriteSchedBench(cfg, w, *merge, *minSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: sched parallel-search bench finished in %v\n", time.Since(start))
		return
	}
	if *exp == "enum" {
		// The enumeration experiment: session KindEnumerateAll versus
		// the BK all-optima baseline (identical-set verified) plus the
		// diversified top-r coverage win. JSON-only; -merge embeds it
		// under "enum"; -min-speedup gates the engine-over-baseline
		// wall-clock ratio.
		if err := bench.WriteEnumBench(cfg, w, *merge, *minSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: enum bench finished in %v\n", time.Since(start))
		return
	}
	if *exp == "anytime" {
		// The anytime-search experiment: the gap-vs-budget curve on the
		// core instance — deadline runs at fractions of the exact wall
		// clock, each with its certified optimality gap. Hard-fails if
		// the zero-deadline run reports inexact or any point breaks the
		// incumbent <= optimum <= certificate sandwich. JSON-only;
		// -merge embeds it under "anytime".
		if err := bench.WriteAnytimeBench(cfg, w, *merge); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: anytime search bench finished in %v\n", time.Since(start))
		return
	}
	if *exp == "ingest" {
		// The paper-scale ingest experiment: streaming CSR build from
		// SNAP text, degeneracy pre-prune and component-parallel
		// reduction. JSON-only; -merge embeds it under "ingest";
		// -max-mem-ratio and -min-speedup are the CI gates.
		if err := bench.WriteIngestBench(cfg, w, *merge, *minSpeedup, *maxMemRatio, *graphDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: ingest pipeline bench finished in %v\n", time.Since(start))
		return
	}
	switch *format {
	case "json":
		if err := bench.WriteJSON(cfg, w); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: json suite finished in %v\n", time.Since(start))
		return
	case "chart":
		bench.RunCharts(cfg)
		fmt.Fprintf(os.Stderr, "benchmark: chart suite finished in %v\n", time.Since(start))
		return
	case "markdown":
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown format %q\n", *format)
		os.Exit(2)
	}
	switch *exp {
	case "all":
		bench.RunAll(cfg)
	case "table1":
		bench.TableI(cfg)
	case "fig4":
		bench.Fig4(cfg)
	case "fig5":
		bench.Fig5(cfg)
	case "table2":
		bench.Table2(cfg)
	case "fig6":
		bench.Fig6(cfg)
	case "fig7":
		bench.Fig7(cfg)
	case "fig8":
		bench.Fig8(cfg)
	case "fig9":
		bench.Fig9(cfg)
	case "casestudies":
		bench.RunCaseStudies(cfg)
	case "ablation":
		bench.Ablation(cfg)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s finished in %v\n", *exp, time.Since(start))
}
