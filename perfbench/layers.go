package main

import (
	"fmt"
	"runtime"
	"time"

	"fairclique"
	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/graph"
	"fairclique/internal/heuristic"
	"fairclique/internal/kcore"
	"fairclique/internal/reduce"
	"fairclique/internal/session"
)

// sessionOptions is the configuration every benchmarked session uses:
// the repository's defaults (advanced bounds plus the colorful
// degeneracy bound, HeurRFC seeding, all reductions).
func sessionOptions(workers int) session.Options {
	return session.Options{
		UseBounds:    true,
		Extra:        bounds.ColorfulDegeneracy,
		UseHeuristic: true,
		Workers:      workers,
	}
}

func query(c cell) session.Query { return session.Query{K: int32(c.K), Delta: int32(c.Delta)} }

// chainStats is what one static-pipeline replay observed besides its
// spans.
type chainStats struct {
	survivorRatio          float64
	keptVertices, keptEdge int32
	heurSize               int
	nodes, checks, prunes  int64
	mallocs                uint64
}

// staticChain replays, under one "static" root span, the pipeline a
// cold Session.Find runs, one public call per layer:
// FairCliquePrune → PipelineN → PrepareReduced → HeurRFC →
// Prepared.Search. PipelineN repeats the prune as its stage 0, so the
// reduce layer's own time is PipelineN minus the prune. The HeurRFC
// clique is passed to Search as its seed, which is what Search does with
// it internally when the session asks for the heuristic. The answer is
// checked against the reference like any other.
func staticChain(tr *tracer, op int, g *graph.Graph, c cell, want int) (chainStats, error) {
	var st chainStats
	k := int32(c.K)
	root := tr.begin("static", op, -1)
	defer tr.end(root)

	id := tr.begin("kcore.FairCliquePrune", op, root)
	_, pst := kcore.FairCliquePrune(g, k)
	tr.end(id)
	st.survivorRatio = ratio(float64(pst.Survivors), float64(g.N()))

	id = tr.begin("reduce.PipelineN", op, root)
	sub, _ := reduce.PipelineN(g, k, 1)
	tr.end(id)
	st.keptVertices, st.keptEdge = sub.G.N(), sub.G.M()

	id = tr.begin("core.PrepareReduced", op, root)
	p := core.PrepareReduced(sub.G, sub.ToParent)
	tr.end(id)

	id = tr.begin("heuristic.HeurRFC", op, root)
	h := heuristic.HeurRFC(p.Work(), k, int32(c.Delta))
	tr.end(id)
	var seed []int32
	for _, v := range h.Clique {
		seed = append(seed, sub.ToParent[v])
	}
	st.heurSize = len(seed)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = tr.begin("core.Search", op, root)
	res, err := p.Search(core.Options{
		K: c.K, Delta: c.Delta, UseBounds: true, Extra: bounds.ColorfulDegeneracy, Workers: 1,
	}, seed)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return st, fmt.Errorf("static search: %w", err)
	}
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.nodes, st.checks, st.prunes = res.Stats.Nodes, res.Stats.BoundChecks, res.Stats.BoundPrunes
	return st, checkFair(g, res.Clique, c, want)
}

// chainTotals accumulates staticChain results over a replay and turns
// them, with the spans, into the per-layer metrics of the pipeline.
type chainTotals struct {
	ops                   int
	survivorRatio         float64
	keptV, keptE, gap     float64
	nodes, checks, prunes int64
	mallocs               uint64
}

func (t *chainTotals) add(st chainStats, want int) {
	t.ops++
	t.survivorRatio += st.survivorRatio
	t.keptV += float64(st.keptVertices)
	t.keptE += float64(st.keptEdge)
	t.gap += float64(want - st.heurSize)
	t.nodes += st.nodes
	t.checks += st.checks
	t.prunes += st.prunes
	t.mallocs += st.mallocs
}

// pipelineMetrics fills the kcore, reduce, heuristic, core and session
// timing metrics from the spans of ops replayed ops. Times are means per
// op; core.nodes is the exact total over the replay.
func (t *chainTotals) pipelineMetrics(m map[string]float64, tot map[string]*spanTotals) {
	n := float64(t.ops)
	prune := meanSeconds(tot, "kcore.FairCliquePrune", t.ops)
	pipeline := meanSeconds(tot, "reduce.PipelineN", t.ops)
	prepare := meanSeconds(tot, "core.PrepareReduced", t.ops)
	heur := meanSeconds(tot, "heuristic.HeurRFC", t.ops)
	search := meanSeconds(tot, "core.Search", t.ops)
	find := meanSeconds(tot, "session.Find", t.ops)

	m["kcore.prune_s"] = prune
	m["kcore.survivor_ratio"] = t.survivorRatio / n
	m["reduce.pipeline_s"] = pipeline - prune
	m["reduce.kept_vertices"] = t.keptV / n
	m["reduce.kept_edges"] = t.keptE / n
	m["heuristic.heurrfc_s"] = heur
	m["heuristic.gap"] = t.gap / n
	m["core.prepare_s"] = prepare
	m["core.search_s"] = search
	m["core.nodes"] = float64(t.nodes)
	m["core.nodes_per_s"] = ratio(float64(t.nodes), search*n)
	m["core.allocs_per_node"] = ratio(float64(t.mallocs), float64(t.nodes))
	m["core.bound_prune_ratio"] = ratio(float64(t.prunes), float64(t.checks))
	m["session.find_s"] = find
	// What Session.Find spends outside the layers it calls: the same
	// cell's reduction (prune included), preparation, heuristic and
	// search, replayed statically, subtracted from the session's time.
	m["session.self_s"] = find - (pipeline + prepare + heur + search)
}

// counters are the session and scheduler counters the benchmark reads
// (Session.Stats), indexed by the counter* constants.
type counters [numCounters]int64

const (
	cQueries = iota
	cSkips
	cWarm
	cPatched
	cRippled
	cCompReused
	cEnumMaintained
	cEnumRecomputed
	cSteals
	cPoolSearches
	cSpecWins
	cSpecStarts
	cReleases
	cNodes
	numCounters
)

func internalCounters(s session.Stats) counters {
	return counters{s.Queries, s.DominanceSkips, s.WarmStarts, s.SnapshotsPatched, s.SnapshotsRippled,
		s.CompPrepsReused, s.EnumMaintained, s.EnumRecomputed, s.Steals, s.PoolSearches,
		s.SpeculativeWins, s.SpeculativeStarts, s.WorkerReleases, s.Nodes}
}

func publicCounters(s fairclique.SessionStats) counters {
	return counters{s.Queries, s.DominanceSkips, s.WarmStarts, s.SnapshotsPatched, s.SnapshotsRippled,
		s.CompPrepsReused, s.EnumMaintained, s.EnumRecomputed, s.Steals, s.PoolSearches,
		s.SpeculativeWins, s.SpeculativeStarts, s.WorkerReleases, s.Nodes}
}

// add sums b into c (the many short-lived sessions of one replay).
func (c *counters) add(b counters) {
	for i := range c {
		c[i] += b[i]
	}
}

// sessionMetrics fills the session and sched metrics from the counters
// a replay accumulated (after minus before, for a long-lived session).
func sessionMetrics(m map[string]float64, d counters) {
	f := func(i int) float64 { return float64(d[i]) }
	m["session.dominance_skip_ratio"] = ratio(f(cSkips), f(cQueries))
	m["session.warm_start_ratio"] = ratio(f(cWarm), f(cQueries))
	m["session.snapshots_patched"] = f(cPatched)
	m["session.snapshots_rippled"] = f(cRippled)
	m["session.comp_preps_reused"] = f(cCompReused)
	m["session.enum_maintained_ratio"] = ratio(f(cEnumMaintained), f(cEnumMaintained)+f(cEnumRecomputed))
	m["sched.steals_per_search"] = ratio(f(cSteals), f(cPoolSearches))
	m["sched.spec_win_ratio"] = ratio(f(cSpecWins), f(cSpecStarts))
	m["sched.worker_releases"] = f(cReleases)
}

// timeIt runs fn and returns its wall-clock duration.
func timeIt(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
