package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
	"fairclique/internal/reduce"
	"fairclique/internal/session"
)

// The canonical ingest instance: gen.IngestGiant(seed 1), queried at
// the (k, δ) its plant was engineered for. The balanced 20-clique is
// the unique optimum by construction, so BestSize doubles as an
// end-to-end correctness receipt.
const (
	ingestSeed      = 1
	ingestK         = 8
	ingestDelta     = 2
	ingestPlantSize = 20
	ingestWorkers   = 4
	// ingestLoads is how many times the SNAP pair is loaded; the record
	// keeps the median. One cold load read 0.288–0.503 s over 16 runs
	// on one 2-vCPU VM, so a single sample flipped the record with
	// every regeneration.
	ingestLoads = 5
)

// IngestBenchResult is the paper-scale ingest record merged into
// BENCH_core.json under "ingest" (`benchmark -exp ingest`): SNAP text →
// streaming CSR → degeneracy pre-prune → component-parallel reduction →
// session search, on the reproducible multi-million-edge IngestGiant
// instance.
type IngestBenchResult struct {
	Instance   string  `json:"instance"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`

	// Final CSR sizes of the ingested graph.
	Vertices int32 `json:"vertices"`
	Edges    int64 `json:"edges"`

	// Streaming ingest of the on-disk SNAP pair: the median wall clock
	// of ingestLoads loads, raw edge records per second at that median,
	// and the builder's own accounting. MemRatio is the streaming claim
	// PeakTrackedBytes/CSRBytes — deterministic, so the CI gate
	// (-max-mem-ratio) is enforceable on any machine.
	IngestSeconds     float64           `json:"ingest_seconds"`
	IngestEdgesPerSec float64           `json:"ingest_edges_per_sec"`
	Stream            graph.StreamStats `json:"stream"`
	MemRatio          float64           `json:"mem_ratio_peak_over_csr"`

	// Degeneracy pre-prune at the fairness floor 2k-1.
	PruneSeconds       float64 `json:"prune_seconds"`
	PruneThreshold     int32   `json:"prune_threshold"`
	PruneSurvivors     int32   `json:"prune_survivors"`
	PruneSurvivorEdges int32   `json:"prune_survivor_edges"`
	Components         int     `json:"components"`

	// Colorful reduction on the pruned survivor graph, serial vs the
	// component-parallel pool (best of 3 each). Measuring on the
	// survivor — not the raw graph — keeps the inherently serial prune
	// out of the parallel ratio, so the gate isolates the worker pool.
	// ReduceMatch asserts the two snapshots are bit-identical; the
	// record is only trustworthy when it is true.
	ReduceSerialSeconds   float64 `json:"reduce_serial_seconds"`
	ReduceParallelSeconds float64 `json:"reduce_parallel_seconds"`
	ReduceWorkers         int     `json:"reduce_workers"`
	SpeedupW4OverW1       float64 `json:"speedup_w4_over_w1"`
	ReduceMatch           bool    `json:"reduce_match"`
	FinalVertices         int32   `json:"final_vertices"`
	FinalEdges            int32   `json:"final_edges"`

	// Session Find(k, δ) on the ingested graph — pays prune + reduction
	// + search, so IngestSeconds + FindSeconds is the full pipeline
	// without double counting the separately measured phases above.
	FindSeconds float64 `json:"find_seconds"`
	FindNodes   int64   `json:"find_nodes"`
	BestSize    int     `json:"best_size"`

	// EndToEndNodesPerSec is graph vertices pushed through the whole
	// text-to-answer pipeline per second.
	EndToEndSeconds     float64 `json:"end_to_end_seconds"`
	EndToEndNodesPerSec float64 `json:"end_to_end_nodes_per_sec"`

	PeakAllocBytes uint64 `json:"peak_alloc_bytes"`
}

// ingestSNAPPair materializes the instance as a SNAP edge+attribute
// pair. With a graphDir the pair is cached there keyed by seed and
// scale (the CI job caches the directory between runs); otherwise it
// lands in a temp dir removed by cleanup. Writes go through a rename so
// a killed run cannot leave a truncated file in the cache.
func ingestSNAPPair(g *graph.Graph, graphDir string, scale float64) (edgePath, attrPath string, cleanup func(), err error) {
	cleanup = func() {}
	dir := graphDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "fairclique-ingest-")
		if err != nil {
			return "", "", cleanup, err
		}
		cleanup = func() { os.RemoveAll(dir) }
	} else if err = os.MkdirAll(dir, 0o755); err != nil {
		return "", "", cleanup, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("ingest_seed%d_scale%g", ingestSeed, scale))
	edgePath, attrPath = stem+".snap", stem+".attrs"
	if _, e1 := os.Stat(edgePath); e1 == nil {
		if _, e2 := os.Stat(attrPath); e2 == nil {
			return edgePath, attrPath, cleanup, nil // cache hit
		}
	}
	write := func(path string, emit func(io.Writer) error) error {
		f, err := os.Create(path + ".tmp")
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(path+".tmp", path)
	}
	if err = write(edgePath, func(w io.Writer) error { return graph.WriteSNAP(w, g) }); err != nil {
		return "", "", cleanup, err
	}
	if err = write(attrPath, func(w io.Writer) error { return graph.WriteSNAPAttrs(w, g) }); err != nil {
		return "", "", cleanup, err
	}
	return edgePath, attrPath, cleanup, nil
}

// sameIngestGraph verifies the streamed CSR is exactly the generated
// instance — vertex ids, attributes and adjacency. This also catches a
// stale cached SNAP pair from an older generator.
func sameIngestGraph(want, got *graph.Graph) error {
	if want.N() != got.N() || want.M() != got.M() {
		return fmt.Errorf("n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for v := int32(0); v < want.N(); v++ {
		if want.Attr(v) != got.Attr(v) {
			return fmt.Errorf("vertex %d attr mismatch", v)
		}
		a, b := want.Neighbors(v), got.Neighbors(v)
		if len(a) != len(b) {
			return fmt.Errorf("vertex %d degree %d, want %d", v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("vertex %d adjacency mismatch", v)
			}
		}
	}
	return nil
}

// sameSubgraph reports whether two reduction snapshots are identical:
// same vertex mapping, attributes and adjacency.
func sameSubgraph(a, b *graph.Subgraph) bool {
	if a.G.N() != b.G.N() || a.G.M() != b.G.M() || len(a.ToParent) != len(b.ToParent) {
		return false
	}
	for i := range a.ToParent {
		if a.ToParent[i] != b.ToParent[i] {
			return false
		}
	}
	for v := int32(0); v < a.G.N(); v++ {
		if a.G.Attr(v) != b.G.Attr(v) {
			return false
		}
		na, nb := a.G.Neighbors(v), b.G.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// IngestBench runs the paper-scale ingest experiment: generate (or
// reuse) the SNAP pair, stream it into a CSR, pre-prune, reduce serial
// vs parallel on the survivor graph, and answer the planted query.
func IngestBench(cfg Config, graphDir string) (res IngestBenchResult, err error) {
	scale := cfg.scale()
	res = IngestBenchResult{
		Instance:      "ingest-giant",
		Seed:          ingestSeed,
		Scale:         scale,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		ReduceWorkers: ingestWorkers,
	}
	sampler := startPeakSampler()
	defer func() { res.PeakAllocBytes = sampler.Stop() }()

	// The in-memory generation is cheap and deterministic, so it always
	// runs — it is the ground truth the streamed CSR is verified
	// against, even on a SNAP cache hit.
	want := gen.IngestGiant(ingestSeed, scale)
	edgePath, attrPath, cleanup, err := ingestSNAPPair(want, graphDir, scale)
	defer cleanup()
	if err != nil {
		return res, err
	}

	// Streaming ingest. The chunk budget scales with the instance so
	// the builder genuinely spills (~64 chunks per input) instead of
	// buffering everything, keeping the peak-memory claim honest.
	chunk := int(int64(want.M()) / 64)
	if chunk < 4096 {
		chunk = 4096
	}
	var g *graph.Graph
	var st *graph.StreamStats
	loads := make([]float64, ingestLoads)
	for i := range loads {
		g = nil // the previous load's CSR may go before the next is built
		start := time.Now()
		g, st, err = graph.LoadSNAP(edgePath, attrPath, graph.StreamConfig{ChunkEdges: chunk})
		loads[i] = time.Since(start).Seconds()
		if err != nil {
			return res, err
		}
		if err := sameIngestGraph(want, g); err != nil {
			return res, fmt.Errorf("ingested graph differs from generator output (stale cache? delete %s): %w", edgePath, err)
		}
	}
	slices.Sort(loads)
	res.IngestSeconds = loads[len(loads)/2]
	if st.RunsSpilled == 0 {
		return res, fmt.Errorf("ingest bench: the builder spilled no runs (chunk %d edges, %d edges read), so the record would not measure the spill path",
			chunk, st.EdgesRead)
	}
	res.Vertices, res.Edges = st.Vertices, st.Edges
	res.Stream = *st
	res.IngestEdgesPerSec = float64(st.EdgesRead) / res.IngestSeconds
	if st.CSRBytes > 0 {
		res.MemRatio = float64(st.PeakTrackedBytes) / float64(st.CSRBytes)
	}

	// Degeneracy pre-prune at the fairness floor and the component
	// fan-out it exposes.
	start := time.Now()
	alive, pst := kcore.FairCliquePrune(g, ingestK)
	res.PruneSeconds = time.Since(start).Seconds()
	res.PruneThreshold = pst.Threshold
	res.PruneSurvivors = pst.Survivors
	res.PruneSurvivorEdges = pst.SurvivorEdges
	survivor := graph.InduceAlive(g, alive, nil)
	res.Components = len(graph.ConnectedComponents(survivor.G))

	// Serial vs component-parallel reduction on the survivor graph,
	// best of 3, with byte-identity across the two snapshots.
	measure := func(workers int) (*graph.Subgraph, float64) {
		var sub *graph.Subgraph
		var best float64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			s, _ := reduce.PipelineN(survivor.G, ingestK, workers)
			elapsed := time.Since(start).Seconds()
			if rep == 0 || elapsed < best {
				best = elapsed
				sub = s
			}
		}
		return sub, best
	}
	serialSub, serialSecs := measure(1)
	parSub, parSecs := measure(ingestWorkers)
	res.ReduceSerialSeconds, res.ReduceParallelSeconds = serialSecs, parSecs
	res.ReduceMatch = sameSubgraph(serialSub, parSub)
	res.FinalVertices, res.FinalEdges = serialSub.G.N(), serialSub.G.M()
	if parSecs > 0 {
		res.SpeedupW4OverW1 = serialSecs / parSecs
	}

	// The planted query on a fresh session (best of 3): prune +
	// reduction + branch-and-bound, answered by the unique K20.
	sopt := session.Options{
		UseBounds:    true,
		Extra:        bounds.ColorfulDegeneracy,
		UseHeuristic: true,
		Workers:      ingestWorkers,
		MaxNodes:     cfg.MaxNodes,
	}
	q := session.Query{K: ingestK, Delta: ingestDelta}
	for rep := 0; rep < 3; rep++ {
		s := session.New(g, sopt)
		start := time.Now()
		r, err := s.Find(q)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return res, err
		}
		if rep == 0 || elapsed < res.FindSeconds {
			res.FindSeconds = elapsed
			res.FindNodes = r.Stats.Nodes
			res.BestSize = r.Size()
		}
	}

	res.EndToEndSeconds = res.IngestSeconds + res.FindSeconds
	if res.EndToEndSeconds > 0 {
		res.EndToEndNodesPerSec = float64(res.Vertices) / res.EndToEndSeconds
	}
	return res, nil
}

// WriteIngestBench runs IngestBench, writes its JSON record to w,
// embeds it under "ingest" in the core record at mergePath when given,
// and enforces the two ingest gates: -max-mem-ratio fails when the
// deterministic streaming high-water reaches the given multiple of the
// final CSR bytes (enforceable on any machine), and -min-speedup fails
// unless the component-parallel reduction beats serial by more than the
// gate (refused on a single-core run, like the sched gate — committed
// records from 1-CPU containers are ~1.0 by construction).
func WriteIngestBench(cfg Config, w io.Writer, mergePath string, minSpeedup, maxMemRatio float64, graphDir string) error {
	res, err := IngestBench(cfg, graphDir)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.ReduceMatch {
		return fmt.Errorf("ingest bench: parallel reduction snapshot diverged from serial; record not trustworthy")
	}
	if cfg.MaxNodes == 0 && res.BestSize != ingestPlantSize {
		return fmt.Errorf("ingest bench: Find(k=%d, δ=%d) returned %d, want the planted %d-clique; record not trustworthy",
			ingestK, ingestDelta, res.BestSize, ingestPlantSize)
	}
	if mergePath != "" {
		rec, err := LoadCoreBench(mergePath)
		if err != nil {
			return fmt.Errorf("load %s: %w", mergePath, err)
		}
		rec.Ingest = &res
		if err := writeCoreRecord(mergePath, rec); err != nil {
			return err
		}
	}
	if maxMemRatio > 0 {
		if res.MemRatio >= maxMemRatio {
			return fmt.Errorf("ingest bench: streaming peak %d bytes is %.2fx the final CSR (%d bytes), not under the %.2fx gate",
				res.Stream.PeakTrackedBytes, res.MemRatio, res.Stream.CSRBytes, maxMemRatio)
		}
		fmt.Fprintf(os.Stderr, "ingest bench: streaming peak %.2fx of CSR bytes clears the %.2fx gate\n",
			res.MemRatio, maxMemRatio)
	}
	if minSpeedup > 0 {
		if res.GOMAXPROCS < 2 {
			return fmt.Errorf("ingest bench: -min-speedup needs a multi-core run, but GOMAXPROCS=%d", res.GOMAXPROCS)
		}
		if res.SpeedupW4OverW1 <= minSpeedup {
			return fmt.Errorf("ingest bench: parallel W%d/W1 reduction speedup %.2fx is not above the %.2fx gate (serial %.3fs, W%d %.3fs)",
				ingestWorkers, res.SpeedupW4OverW1, minSpeedup, res.ReduceSerialSeconds, ingestWorkers, res.ReduceParallelSeconds)
		}
		fmt.Fprintf(os.Stderr, "ingest bench: parallel W%d/W1 reduction speedup %.2fx clears the %.2fx gate\n",
			ingestWorkers, res.SpeedupW4OverW1, minSpeedup)
	}
	return nil
}
