package main

import (
	"runtime"
	"strings"
	"time"

	"fairclique/internal/graph"
	"fairclique/internal/session"
)

// search-cold: the paper's one-shot MaxRFC query. Each op builds a fresh
// serial Session on one bigcomp instance and answers one cell, so the
// reduction and the branch loop do nearly all the work. A run rotates
// over cfg.Instances instances drawn from the seed, which averages out
// how much branching a single random nucleus happens to need.

// searchColdTailPct is the tail percentile of search-cold: a 30 s run
// keeps ~55 of its ~110 ops (the quieter half of its windows), ~11 of
// them beyond p80.
const searchColdTailPct = 80

type coldOp struct {
	inst int
	c    cell
}

// coldOp returns op j of the fixed rotation: every cell of instance 0,
// then every cell of instance 1, and so on.
func (cfg config) coldOp(j int) coldOp {
	return coldOp{inst: (j / len(cells)) % cfg.Instances, c: cells[j%len(cells)]}
}

func buildInstances(cfg config) []*graph.Graph {
	gs := make([]*graph.Graph, cfg.Instances)
	for i := range gs {
		gs[i] = bigcomp(cfg, i)
	}
	return gs
}

// coldSetup builds the instance set cfg.ColdSetupReps times (setup_s is
// the median) and loads the reference optima, outside every timed region.
func coldSetup(cfg config) ([]*graph.Graph, []optima, []float64, error) {
	var gs []*graph.Graph
	var setups []float64
	for r := 0; r < max(cfg.ColdSetupReps, 1); r++ {
		runtime.GC() // each set-up starts on a collected heap, like a fresh process
		setups = append(setups, timeIt(func() { gs = buildInstances(cfg) }).Seconds())
	}
	refs, err := references(cfg, gs)
	return gs, refs, setups, err
}

// coldFind is the search-cold op: a fresh serial session answering one
// cell.
func coldFind(g *graph.Graph, c cell) ([]int32, error) {
	s := session.New(g, sessionOptions(1))
	defer s.Close()
	r, err := s.Find(query(c))
	if err != nil {
		return nil, err
	}
	return r.Clique, nil
}

func runSearchCold(cfg config) (*outcome, error) {
	gs, refs, setups, err := coldSetup(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	heap := startHeapSampler()
	start := time.Now()
	log := newOpLog(start, int(cfg.Seconds*8))
	for j := 0; j == 0 || time.Since(start) < cfg.duration(); j++ {
		op := cfg.coldOp(j)
		// Each op is a one-shot query; like a fresh process it starts on
		// a collected heap, not on the previous op's garbage.
		runtime.GC()
		t0 := time.Now()
		clique, err := coldFind(gs[op.inst], op.c)
		t1 := time.Now()
		log.add(t1, 0, t1.Sub(t0), 0, uint16(j%(len(cells)*cfg.Instances)))
		if err == nil {
			err = checkFair(gs[op.inst], clique, op.c, refs[op.inst][op.c.String()])
		}
		o.check(err)
	}
	o.metrics["peak_heap_mb"] = heap.stopMiB()
	s := log.summarize(cfg.Seconds, searchColdTailPct)
	o.metrics["setup_s"] = median(setups)
	o.metrics["latency_p50_ms"] = s.p50
	o.metrics["latency_tail_ms"] = s.tail
	o.metrics["throughput_ops_s"] = s.throughput
	o.note("instances: %d x gen.BigComponent(seed*16+i, %d, 0.5, %d); cells %v", cfg.Instances, cfg.Nucleus, cfg.Shell, cells)
	s.note(o, searchColdTailPct)
	return o, nil
}

// traceSearchCold replays one full rotation single-threaded. Each op is
// run three times: plain (timed from outside, as in the untraced run),
// traced (the same session op under spans) and as the static pipeline
// (staticChain). trace.overhead_ratio compares the first two.
func traceSearchCold(cfg config, tr *tracer) (*outcome, error) {
	gs, refs, _, err := coldSetup(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var plain, traced []float64
	var chain chainTotals
	var stats counters
	for j := 0; j < len(cells)*cfg.Instances; j++ {
		op := cfg.coldOp(j)
		g, want := gs[op.inst], refs[op.inst][op.c.String()]

		plain = append(plain, ms(timeIt(func() { _, _ = coldFind(g, op.c) })))

		root := tr.begin("op", j, -1)
		id := tr.begin("session.New", j, root)
		s := session.New(g, sessionOptions(1))
		tr.end(id)
		id = tr.begin("session.Find", j, root)
		r, err := s.Find(query(op.c))
		tr.end(id)
		traced = append(traced, ms(tr.end(root)))
		if err == nil {
			err = checkFair(g, r.Clique, op.c, want)
			stats.add(internalCounters(s.Stats()))
		}
		s.Close()
		o.check(err)

		st, err := staticChain(tr, j, g, op.c, want)
		o.check(err)
		chain.add(st, want)
	}
	chain.pipelineMetrics(o.metrics, tr.totals())
	sessionMetrics(o.metrics, stats)
	zero(o.metrics, "graph.", "serve.")
	o.metrics["trace.overhead_ratio"] = ratio(median(traced), median(plain))
	o.note("replay: %d ops (one rotation); core.nodes is their exact total (Session.Find branched %d)", chain.ops, stats[cNodes])
	return o, nil
}

// zero sets every per-layer metric with one of the prefixes to 0: the
// workload does not exercise that layer.
func zero(m map[string]float64, prefixes ...string) {
	for _, s := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				m[s.Name] = 0
			}
		}
	}
}
