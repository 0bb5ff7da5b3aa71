// Command mfc finds a maximum relative fair clique in an attributed
// graph file (the text format documented in the fairclique package:
// "v <id> <a|b>" and "e <u> <v>" records, or plain edge lists).
//
// Usage:
//
//	mfc -graph g.txt -k 3 -delta 1 [-bound cd] [-no-heur] [-no-bounds]
//	mfc -graph g.txt -k 3 -delta 1 -deadline 500ms   # anytime: best clique + certified gap

//	mfc -graph g.txt -k 3 -delta 1 -heuristic    # linear-time HeurRFC only
//	mfc -graph g.txt -k 3 -reduce                # reduction pipeline only
//	mfc -graph g.txt -k 3 -delta 1 -enum         # Bron-Kerbosch baseline
//	mfc -graph g.txt -k 3 -delta 1 -enumerate    # ALL maximum fair cliques
//	mfc -graph g.txt -k 3 -delta 1 -top 5        # diversified top-5 by vertex coverage
//	mfc -graph g.txt -grid 'k=2..4,delta=1..3'   # multi-query session grid
//	mfc -graph g.txt -k 3 -delta 1 -apply '+e:0:5 -e:1:2'   # dynamic session
//	mfc -graph g.txt -repl                       # interactive session REPL
//
// The -grid form answers every (k, δ) cell of the given ranges through
// one warm fairclique.Session, so the reduction, ordering and successor
// masks are built once and the cells warm-start each other. A
// mode=weak or mode=strong entry switches the whole grid to that
// fairness model (the delta range is then ignored).
//
// The -apply form runs the query (or grid) on a session, applies the
// given delta — in the daemon's op syntax, internal/serve.ParseOps:
// +e:U:V, -e:U:V, +v:a|b, -v:ID — and re-answers on the mutated graph,
// printing what the incremental invalidation retained. The -repl form
// reads find/grid/apply/stats commands from stdin against one
// long-lived session (try "help").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fairclique"
	"fairclique/internal/cli"
	"fairclique/internal/enum"
	"fairclique/internal/graph"
	"fairclique/internal/serve"
)

var boundNames = map[string]fairclique.UpperBound{
	"ad":  fairclique.UBAdvanced,
	"deg": fairclique.UBDegeneracy,
	"h":   fairclique.UBHIndex,
	"cd":  fairclique.UBColorfulDegeneracy,
	"ch":  fairclique.UBColorfulHIndex,
	"cp":  fairclique.UBColorfulPath,
}

func main() {
	var (
		graphPath  = flag.String("graph", "", "path to the attributed graph file (required)")
		k          = flag.Int("k", 2, "per-attribute minimum count")
		delta      = flag.Int("delta", 1, "maximum attribute-count difference")
		bound      = flag.String("bound", "cd", "extra upper bound: ad, deg, h, cd, ch, cp")
		noHeur     = flag.Bool("no-heur", false, "disable HeurRFC seeding")
		noBounds   = flag.Bool("no-bounds", false, "disable upper-bound pruning (plain MaxRFC)")
		noReduce   = flag.Bool("no-reduce", false, "skip the reduction pipeline")
		heurOnly   = flag.Bool("heuristic", false, "run only the linear-time heuristic")
		reduceOnly = flag.Bool("reduce", false, "run only the reduction pipeline and report sizes")
		exhaustive = flag.Bool("enum", false, "use the Bron-Kerbosch enumeration baseline (one clique)")
		enumerate  = flag.Bool("enumerate", false, "enumerate ALL maximum fair cliques (collect-at-optimum engine)")
		topR       = flag.Int("top", 0, "with or without -enumerate: print a diversified top-R subset of the maximum fair cliques (0 = all)")
		maxNodes   = flag.Int64("max-nodes", 0, "abort after this many branch nodes (0 = unlimited)")
		deadline   = flag.Duration("deadline", 0, "anytime wall-clock budget, e.g. 500ms (0 = none); an aborted run prints its certified upper bound and gap")
		workers    = flag.Int("workers", 1, "parallel branching workers (each query, every grid cell included, splits its search across them)")
		grid       = flag.String("grid", "", "answer a (k, delta) grid on one warm session, e.g. 'k=2..4,delta=1..3[,mode=weak|strong]'")
		applySpec  = flag.String("apply", "", "apply a graph delta on a warm session and re-answer, e.g. '+e:0:5 -e:1:2 +v:a -v:7'")
		repl       = flag.Bool("repl", false, "interactive session REPL on stdin (find/grid/apply/stats; see 'help')")
		quiet      = flag.Bool("q", false, "print only the clique size")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	g, err := fairclique.ReadGraphFile(*graphPath)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())
	}

	sessionOpts := func() fairclique.SessionOptions {
		ub, ok := boundNames[*bound]
		if !ok {
			fatal(fmt.Errorf("unknown bound %q (want ad, deg, h, cd, ch or cp)", *bound))
		}
		return fairclique.SessionOptions{
			Bound:            ub,
			DisableBounds:    *noBounds,
			DisableHeuristic: *noHeur,
			DisableReduction: *noReduce,
			MaxNodes:         *maxNodes,
			Workers:          *workers,
		}
	}

	if *repl {
		runREPL(g, sessionOpts())
		return
	}

	if *grid != "" || *applySpec != "" {
		specs := []fairclique.QuerySpec{{K: *k, Delta: *delta}}
		if *grid != "" {
			var err error
			specs, err = parseGrid(*grid)
			if err != nil {
				fatal(err)
			}
		}
		if *applySpec == "" {
			runGrid(g, specs, sessionOpts(), *quiet)
			return
		}
		d, err := parseDelta(*applySpec)
		if err != nil {
			fatal(err)
		}
		runApply(g, specs, d, sessionOpts(), *quiet)
		return
	}

	switch {
	case *reduceOnly:
		kept, stages, err := fairclique.Reduce(g, *k)
		if err != nil {
			fatal(err)
		}
		for _, s := range stages {
			fmt.Printf("%-16s %8d vertices %10d edges\n", s.Stage, s.Vertices, s.Edges)
		}
		fmt.Printf("kept %d vertices\n", len(kept))
		return

	case *heurOnly:
		start := time.Now()
		clique, ub, err := fairclique.Heuristic(g, *k, *delta)
		if err != nil {
			fatal(err)
		}
		report(g, clique, *quiet, time.Since(start))
		if !*quiet {
			fmt.Printf("upper bound: %d\n", ub)
		}
		return

	case *exhaustive:
		if *k < 1 {
			fatal(fmt.Errorf("fairclique: k must be >= 1, got %d", *k))
		}
		if *delta < 0 {
			fatal(fmt.Errorf("fairclique: delta must be >= 0, got %d", *delta))
		}
		ig := internalGraph(g)
		start := time.Now()
		var clique []int
		for _, v := range enum.MaxFairClique(ig, *k, *delta) {
			clique = append(clique, int(v))
		}
		report(g, clique, *quiet, time.Since(start))
		return

	case *enumerate || *topR > 0:
		sess := fairclique.NewSession(g, sessionOpts())
		spec := fairclique.QuerySpec{K: *k, Delta: *delta, Kind: fairclique.KindEnumerateAll, Deadline: *deadline}
		if *topR > 0 {
			spec.Kind = fairclique.KindTopR
			spec.R = *topR
		}
		start := time.Now()
		rs, err := sess.Enumerate(spec)
		if err != nil {
			fatal(err)
		}
		reportSet(rs, *quiet, time.Since(start))
		return
	}

	ub, ok := boundNames[*bound]
	if !ok {
		fatal(fmt.Errorf("unknown bound %q (want ad, deg, h, cd, ch or cp)", *bound))
	}
	opt := fairclique.Options{
		K:                *k,
		Delta:            *delta,
		Bound:            ub,
		DisableBounds:    *noBounds,
		DisableHeuristic: *noHeur,
		DisableReduction: *noReduce,
		MaxNodes:         *maxNodes,
		Deadline:         *deadline,
		Workers:          *workers,
	}
	start := time.Now()
	res, err := fairclique.Find(g, opt)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	report(g, res.Clique, *quiet, elapsed)
	if !*quiet {
		fmt.Printf("attribute counts: %d a, %d b\n", res.CountA, res.CountB)
		fmt.Printf("reduced graph: %d vertices, %d edges\n",
			res.Stats.ReducedVertices, res.Stats.ReducedEdges)
		fmt.Printf("search: %d nodes, %d bound checks, %d bound prunes, heuristic seed %d\n",
			res.Stats.Nodes, res.Stats.BoundChecks, res.Stats.BoundPrunes, res.Stats.HeuristicSize)
		if !res.Exact {
			fmt.Printf("anytime: budget expired; optimum is in [%d, %d] (gap %d)\n",
				res.Size(), res.UpperBound, res.Gap)
		}
	}
}

// internalGraph copies g into the internal graph type the Bron–Kerbosch
// baseline (internal/enum) runs on: same vertex ids, attributes and
// edges. It copies the graph already parsed, so -graph may name a pipe.
func internalGraph(g *fairclique.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		b.SetAttr(int32(u), g.Attr(u))
		for _, w := range g.Neighbors(u) {
			if w > u {
				b.AddEdge(int32(u), int32(w))
			}
		}
	}
	return b.Build()
}

func report(g *fairclique.Graph, clique []int, quiet bool, elapsed time.Duration) {
	if quiet {
		fmt.Println(len(clique))
		return
	}
	if clique == nil {
		fmt.Printf("no fair clique exists (%.2f ms)\n", float64(elapsed.Microseconds())/1000)
		return
	}
	sorted := append([]int(nil), clique...)
	sort.Ints(sorted)
	fmt.Printf("maximum fair clique: size %d (%.2f ms)\n", len(clique), float64(elapsed.Microseconds())/1000)
	fmt.Printf("vertices: %v\n", sorted)
}

// reportSet prints an enumeration answer: the optimum size, the clique
// count, and each clique with its attribute counts.
func reportSet(rs *fairclique.ResultSet, quiet bool, elapsed time.Duration) {
	if quiet {
		fmt.Printf("%d %d\n", rs.Size, len(rs.Cliques))
		return
	}
	if len(rs.Cliques) == 0 {
		fmt.Printf("no fair clique exists (%.2f ms)\n", float64(elapsed.Microseconds())/1000)
		return
	}
	fmt.Printf("maximum fair cliques: size %d, %d cliques (%.2f ms)\n",
		rs.Size, len(rs.Cliques), float64(elapsed.Microseconds())/1000)
	for i, c := range rs.Cliques {
		fmt.Printf("  #%d %v (%d a, %d b)\n", i+1, c, rs.Counts[i][0], rs.Counts[i][1])
	}
	if !rs.Exact {
		fmt.Printf("anytime: budget expired; the set is partial, optimum in [%d, %d]\n",
			rs.Size, rs.UpperBound)
	}
}

// parseGrid expands a grid spec into query cells; the parsing itself —
// including the rejection of descending and empty ranges — is shared
// with cmd/benchmark through internal/cli.
func parseGrid(spec string) ([]fairclique.QuerySpec, error) {
	cells, err := cli.ParseGrid(spec)
	if err != nil {
		return nil, err
	}
	specs := make([]fairclique.QuerySpec, len(cells))
	for i, c := range cells {
		specs[i] = fairclique.QuerySpec{K: c.K, Delta: c.Delta}
		switch c.Mode {
		case cli.ModeWeak:
			specs[i].Mode = fairclique.ModeWeak
		case cli.ModeStrong:
			specs[i].Mode = fairclique.ModeStrong
		}
	}
	return specs, nil
}

// parseDelta maps a delta spec in the daemon's op syntax onto the
// public Delta type.
func parseDelta(spec string) (fairclique.Delta, error) {
	ops, err := serve.ParseOps(spec)
	if err != nil {
		return fairclique.Delta{}, err
	}
	if len(ops) == 0 {
		return fairclique.Delta{}, fmt.Errorf("empty delta spec")
	}
	var d fairclique.Delta
	for _, op := range ops {
		switch op.Kind {
		case serve.OpAddEdge:
			d.AddEdges = append(d.AddEdges, [2]int{op.U, op.V})
		case serve.OpDelEdge:
			d.DelEdges = append(d.DelEdges, [2]int{op.U, op.V})
		case serve.OpAddVertex:
			d.AddVertices = append(d.AddVertices, op.Attr)
		case serve.OpDelVertex:
			d.DelVertices = append(d.DelVertices, op.U)
		}
	}
	return d, nil
}

// runGrid answers every cell through one warm session and prints the
// per-cell answers plus the session's amortization counters.
func runGrid(g *fairclique.Graph, specs []fairclique.QuerySpec, opt fairclique.SessionOptions, quiet bool) {
	s := fairclique.NewSession(g, opt)
	start := time.Now()
	results, err := s.FindGrid(specs)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	printCells(specs, results, quiet)
	if quiet {
		return
	}
	fmt.Printf("grid: %d cells in %.2f ms\n", len(specs), float64(elapsed.Microseconds())/1000)
	printSessionStats(s)
}

// printCells prints per-cell answers of a grid run.
func printCells(specs []fairclique.QuerySpec, results []*fairclique.Result, quiet bool) {
	for i, spec := range specs {
		res := results[i]
		if quiet {
			fmt.Println(res.Size())
			continue
		}
		cell := fmt.Sprintf("k=%d δ=%d", spec.K, spec.Delta)
		switch spec.Mode {
		case fairclique.ModeWeak:
			cell = fmt.Sprintf("k=%d weak", spec.K)
		case fairclique.ModeStrong:
			cell = fmt.Sprintf("k=%d strong", spec.K)
		}
		note := ""
		if !res.Exact {
			note = fmt.Sprintf("  (budget expired; optimum in [%d, %d])", res.Size(), res.UpperBound)
		}
		fmt.Printf("%-14s size %2d  (%d a, %d b)  %d nodes%s\n",
			cell, res.Size(), res.CountA, res.CountB, res.Stats.Nodes, note)
	}
}

// runApply demonstrates the dynamic session: answer the cells, apply
// the delta, re-answer on the mutated graph, and print what the
// component-scoped invalidation retained.
func runApply(g *fairclique.Graph, specs []fairclique.QuerySpec, d fairclique.Delta, opt fairclique.SessionOptions, quiet bool) {
	s := fairclique.NewSession(g, opt)
	results, err := s.FindGrid(specs)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Println("before delta:")
	}
	printCells(specs, results, quiet)

	start := time.Now()
	ast, err := s.Apply(d)
	if err != nil {
		fatal(err)
	}
	applyElapsed := time.Since(start)
	start = time.Now()
	results, err = s.FindGrid(specs)
	if err != nil {
		fatal(err)
	}
	requeryElapsed := time.Since(start)
	if !quiet {
		fmt.Printf("delta: +%d edges, -%d edges, +%d vertices -> epoch %d (%.2f ms)\n",
			ast.InsertedEdges, ast.DeletedEdges, ast.NewVertices, ast.Epoch,
			float64(applyElapsed.Microseconds())/1000)
		fmt.Printf("retained: %d component preps, %s, %d/%d pool seeds\n",
			ast.CompPrepsReused, snapshots(ast.SnapshotsReused, ast.SnapshotsPatched, ast.SnapshotsRippled),
			ast.PoolRetained, ast.PoolRetained+ast.PoolDropped)
		fmt.Printf("after delta (%.2f ms):\n", float64(requeryElapsed.Microseconds())/1000)
	}
	printCells(specs, results, quiet)
	if !quiet {
		printSessionStats(s)
	}
}

// printSessionStats prints the session's amortization counters.
func printSessionStats(s *fairclique.Session) {
	st := s.Stats()
	fmt.Printf("session: %d queries, %d nodes, %d reduction builds (%d chained), %d reuses, %d warm starts, %d dominance skips\n",
		st.Queries, st.Nodes, st.ReductionBuilds, st.ReductionChained, st.ReductionReuses, st.WarmStarts, st.DominanceSkips)
	if st.Applies > 0 {
		fmt.Printf("dynamic: %d applies (epoch %d), %d comp preps reused, %s, pool %d kept / %d dropped\n",
			st.Applies, st.Epoch, st.CompPrepsReused,
			snapshots(st.SnapshotsReused, st.SnapshotsPatched, st.SnapshotsRippled),
			st.PoolRetained, st.PoolDropped)
	}
}

// snapshots summarizes what Apply did to the per-k reductions: kept as
// they were, re-reduced on the dirty region, or re-peeled after a
// delete-only delta.
func snapshots(reused, patched, repeeled int64) string {
	return fmt.Sprintf("%d/%d snapshots kept (%d re-peeled)", reused, reused+patched+repeeled, repeeled)
}

// runREPL drives one long-lived session interactively: queries and
// deltas interleave on stdin, mirroring the service regime.
func runREPL(g *fairclique.Graph, opt fairclique.SessionOptions) {
	s := fairclique.NewSession(g, opt)
	fmt.Printf("session ready: %d vertices, %d edges (try 'help')\n", s.N(), s.M())
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch cmd {
		case "quit", "exit", "q":
			return
		case "help":
			fmt.Println(`commands:
  find K DELTA        one (k, δ) relative query
  find K weak|strong  one weak/strong query
  grid SPEC           e.g. grid k=2..4,delta=1..3
  apply OPS           e.g. apply +e:0:5 -e:1:2 +v:a -v:7
  stats               session amortization counters
  graph               current graph size
  quit`)
		case "graph":
			fmt.Printf("graph: %d vertices, %d edges\n", s.N(), s.M())
		case "stats":
			printSessionStats(s)
		case "find":
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				fmt.Println("usage: find K DELTA | find K weak|strong")
				continue
			}
			klo, khi, err := cli.ParseRange(fields[0])
			if err != nil || klo != khi {
				fmt.Println("usage: find K DELTA (single k)")
				continue
			}
			spec := fairclique.QuerySpec{K: klo}
			switch fields[1] {
			case "weak":
				spec.Mode = fairclique.ModeWeak
			case "strong":
				spec.Mode = fairclique.ModeStrong
			default:
				dlo, dhi, err := cli.ParseRange(fields[1])
				if err != nil || dlo != dhi {
					fmt.Println("usage: find K DELTA (single delta; use 'grid' for ranges)")
					continue
				}
				spec.Delta = dlo
			}
			start := time.Now()
			res, err := s.Find(spec)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printCells([]fairclique.QuerySpec{spec}, []*fairclique.Result{res}, false)
			fmt.Printf("(%.2f ms)\n", float64(time.Since(start).Microseconds())/1000)
		case "grid":
			specs, err := parseGrid(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			start := time.Now()
			results, err := s.FindGrid(specs)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printCells(specs, results, false)
			fmt.Printf("grid: %d cells in %.2f ms\n", len(specs), float64(time.Since(start).Microseconds())/1000)
		case "apply":
			d, err := parseDelta(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			start := time.Now()
			ast, err := s.Apply(d)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("epoch %d: +%d edges, -%d edges, +%d vertices; retained %d comp preps, %s, %d/%d seeds (%.2f ms)\n",
				ast.Epoch, ast.InsertedEdges, ast.DeletedEdges, ast.NewVertices,
				ast.CompPrepsReused, snapshots(ast.SnapshotsReused, ast.SnapshotsPatched, ast.SnapshotsRippled),
				ast.PoolRetained, ast.PoolRetained+ast.PoolDropped,
				float64(time.Since(start).Microseconds())/1000)
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mfc:", err)
	os.Exit(1)
}
