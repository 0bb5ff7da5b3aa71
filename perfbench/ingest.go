package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairclique/internal/core"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/session"
)

// ingest-answer: paper-scale text to answer. Each op streams the
// gen.IngestGiant SNAP pair through graph.LoadSNAP, builds a session and
// answers (k=8, δ=2), whose unique optimum is the planted balanced K20.
// The streaming CSR build, the (2k−1)-core prune and the reduction
// dominate; the branch loop explores no nodes, so a change to the
// branch loop alone must not move this workload.

var ingestCell = cell{8, 2}

const (
	ingestPlant = 20
	// ingestTailPct is the tail percentile of ingest-answer: a 30 s run
	// keeps ~12 of its ~25 ops (the quieter half of its windows), ~5 of
	// them beyond p60.
	ingestTailPct = 60
)

// ingestInput is the on-disk SNAP pair of one seed plus what the
// generator says the streamed graph must be.
type ingestInput struct {
	edgePath, attrPath string
	stream             graph.StreamConfig
	fp                 uint64 // fingerprint of the generator's graph
	n                  int32
	want               int // reference optimum: the plant's size
}

// prepareIngest generates the instance in memory (the ground truth the
// streamed CSR is checked against) and writes its SNAP pair under
// cfg.DataDir unless a pair with the same fingerprint is already there.
func prepareIngest(cfg config) (*ingestInput, error) {
	g := gen.IngestGiant(cfg.Seed, cfg.IngestScale)
	dir := filepath.Join(cfg.DataDir, "ingest")
	stem := filepath.Join(dir, fmt.Sprintf("ingest-seed%d-scale%g", cfg.Seed, cfg.IngestScale))
	in := &ingestInput{
		edgePath: stem + ".snap",
		attrPath: stem + ".attrs",
		fp:       fingerprint(g),
		n:        g.N(),
		want:     ingestPlant + cfg.RefOffset,
		// The chunk budget scales with the instance so StreamBuilder
		// genuinely spills (~64 sorted runs) instead of buffering it all.
		stream: graph.StreamConfig{ChunkEdges: max(int(g.M())/64, 4096), SpillDir: filepath.Join(dir, "spill")},
	}
	if err := os.MkdirAll(in.stream.SpillDir, 0o755); err != nil {
		return nil, err
	}
	fpPath, fpText := stem+".fp", fmt.Sprint(in.fp)
	if b, err := os.ReadFile(fpPath); err == nil && string(b) == fpText {
		return in, nil
	}
	if err := writeWith(in.edgePath, func(w io.Writer) error { return graph.WriteSNAP(w, g) }); err != nil {
		return nil, err
	}
	if err := writeWith(in.attrPath, func(w io.Writer) error { return graph.WriteSNAPAttrs(w, g) }); err != nil {
		return nil, err
	}
	return in, writeAtomic(fpPath, []byte(fpText))
}

// writeWith writes path through emit and a rename.
func writeWith(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := emit(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// verify checks one op: the streamed CSR is the generator's graph and
// the answer is the planted clique (a fair clique of the reference size
// made of the plant's vertices, the last ingestPlant ids).
func (in *ingestInput) verify(g *graph.Graph, r *core.Result, err error) error {
	if err != nil {
		return err
	}
	if fp := fingerprint(g); fp != in.fp || g.N() != in.n {
		return fmt.Errorf("streamed CSR (n=%d, fingerprint %x) differs from the generator's (n=%d, %x)", g.N(), fp, in.n, in.fp)
	}
	if err := checkFair(g, r.Clique, ingestCell, in.want); err != nil {
		return err
	}
	for _, v := range r.Clique {
		if v < in.n-ingestPlant {
			return fmt.Errorf("vertex %d of the answer is not in the planted clique", v)
		}
	}
	return nil
}

func (in *ingestInput) load() (*graph.Graph, *graph.StreamStats, error) {
	g, st, err := graph.LoadSNAP(in.edgePath, in.attrPath, in.stream)
	if err != nil {
		return nil, nil, fmt.Errorf("load %s: %w", in.edgePath, err)
	}
	return g, st, nil
}

func runIngest(cfg config) (*outcome, error) {
	in, err := prepareIngest(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	heap := startHeapSampler()
	start := time.Now()
	log := newOpLog(start, int(cfg.Seconds*2))
	for j := 0; j == 0 || time.Since(start) < cfg.duration(); j++ {
		// Each op is a one-shot text-to-answer run; like a fresh process
		// it starts on a collected heap, not on the previous op's garbage.
		runtime.GC()
		t0 := time.Now()
		g, _, err := in.load()
		if err != nil {
			heap.stopMiB()
			return nil, err
		}
		s := session.New(g, sessionOptions(1))
		t1 := time.Now()
		r, err := s.Find(query(ingestCell))
		t2 := time.Now()
		s.Close()
		log.add(t2, t1.Sub(t0), t2.Sub(t1), 0, 0)
		o.check(in.verify(g, r, err))
	}
	o.metrics["peak_heap_mb"] = heap.stopMiB()
	s := log.summarize(cfg.Seconds, ingestTailPct)
	o.metrics["setup_s"] = s.setup
	o.metrics["latency_p50_ms"] = s.p50
	o.metrics["latency_tail_ms"] = s.tail
	o.metrics["throughput_ops_s"] = s.throughput
	o.note("instance: gen.IngestGiant(seed, %g): %d vertices; query (k, δ) = (%v)", cfg.IngestScale, in.n, ingestCell)
	s.note(o, ingestTailPct)
	return o, nil
}

// traceIngest replays cfg.IngestTraceOps ops single-threaded: plain,
// traced (LoadSNAP, session.New and session.Find under spans) and as the
// static pipeline on the graph the traced op loaded.
func traceIngest(cfg config, tr *tracer) (*outcome, error) {
	in, err := prepareIngest(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var plain, traced []float64
	var chain chainTotals
	var stats counters
	var edgesRead, spilled, peakOverCSR float64
	for j := 0; j < cfg.IngestTraceOps; j++ {
		var perr error
		plain = append(plain, ms(timeIt(func() {
			var g *graph.Graph
			if g, _, perr = in.load(); perr == nil {
				s := session.New(g, sessionOptions(1))
				_, perr = s.Find(query(ingestCell))
				s.Close()
			}
		})))
		if perr != nil {
			return nil, perr
		}

		root := tr.begin("op", j, -1)
		id := tr.begin("graph.LoadSNAP", j, root)
		g, st, err := in.load()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("session.New", j, root)
		s := session.New(g, sessionOptions(1))
		tr.end(id)
		id = tr.begin("session.Find", j, root)
		r, err := s.Find(query(ingestCell))
		tr.end(id)
		traced = append(traced, ms(tr.end(root)))
		stats.add(internalCounters(s.Stats()))
		s.Close()
		o.check(in.verify(g, r, err))
		edgesRead += float64(st.EdgesRead)
		spilled += float64(st.SpilledBytes)
		peakOverCSR += ratio(float64(st.PeakTrackedBytes), float64(st.CSRBytes))

		cs, err := staticChain(tr, j, g, ingestCell, in.want)
		o.check(err)
		chain.add(cs, in.want)
	}
	tot := tr.totals()
	n := float64(cfg.IngestTraceOps)
	load := meanSeconds(tot, "graph.LoadSNAP", cfg.IngestTraceOps)
	o.metrics["graph.load_s"] = load
	o.metrics["graph.edges_per_s"] = ratio(edgesRead/n, load)
	o.metrics["graph.spilled_bytes"] = spilled / n
	o.metrics["graph.peak_over_csr"] = peakOverCSR / n
	chain.pipelineMetrics(o.metrics, tot)
	sessionMetrics(o.metrics, stats)
	zero(o.metrics, "serve.")
	o.metrics["trace.overhead_ratio"] = ratio(median(traced), median(plain))
	o.note("replay: %d ops; core.nodes is their exact total (Session.Find branched %d)", chain.ops, stats[cNodes])
	return o, nil
}
