package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/cli"
	"fairclique/internal/core"
	"fairclique/internal/session"
)

// GridBenchCell is one (k, δ) cell of the grid experiment, with the
// agreed answer and the independent-path cost.
type GridBenchCell struct {
	K       int     `json:"k"`
	Delta   int     `json:"delta"`
	Size    int     `json:"size"`
	IndSecs float64 `json:"independent_seconds"`
}

// GridBenchResult records the amortized-vs-independent comparison: the
// same (k, δ) grid answered by independent MaxRFC calls and by one
// session FindGrid, with the per-cell equality that makes the speedup
// claim meaningful. Merged into BENCH_core.json by `make bench`.
type GridBenchResult struct {
	Graph    CoreBenchGraph  `json:"graph"`
	GridSpec string          `json:"grid_spec"`
	Cells    []GridBenchCell `json:"cells"`
	// IndependentSeconds is the summed wall clock of the one-shot runs;
	// SessionSeconds is one FindGrid over a fresh session (best of 3
	// each).
	IndependentSeconds float64 `json:"independent_seconds"`
	SessionSeconds     float64 `json:"session_seconds"`
	Speedup            float64 `json:"speedup_independent_over_session"`
	// AllMatch is true iff every session cell equalled its independent
	// run in size — recorded so a future regression is visible in the
	// committed record, not just in tests.
	AllMatch bool `json:"all_match"`
	// Session amortization counters for the measured FindGrid.
	ReductionBuilds int64 `json:"reduction_builds"`
	ReductionReuses int64 `json:"reduction_reuses"`
	WarmStarts      int64 `json:"warm_starts"`
	DominanceSkips  int64 `json:"dominance_skips"`
	SessionNodes    int64 `json:"session_nodes"`
	// PeakAllocBytes is the sampled heap high-water mark across the
	// measured runs (runtime.ReadMemStats).
	PeakAllocBytes uint64 `json:"peak_alloc_bytes"`
}

// gridBenchQueries expands the experiment's grid spec (Config.GridSpec
// or the canonical 9 cells k=2..4 × δ=1..3) through the shared CLI
// parser, so cmd/benchmark rejects malformed ranges exactly like
// cmd/mfc does.
func gridBenchQueries(spec string) (string, []session.Query, error) {
	if spec == "" {
		spec = "k=2..4,delta=1..3"
	}
	cells, err := cli.ParseGrid(spec)
	if err != nil {
		return spec, nil, err
	}
	qs := make([]session.Query, len(cells))
	for i, c := range cells {
		switch c.Mode {
		case cli.ModeWeak:
			qs[i] = session.Query{K: int32(c.K), Weak: true}
		case cli.ModeStrong:
			qs[i] = session.Query{K: int32(c.K)}
		default:
			qs[i] = session.Query{K: int32(c.K), Delta: int32(c.Delta)}
		}
	}
	return spec, qs, nil
}

// gridSessionOptions is the session configuration of the grid and
// sched experiments: both bound groups and the heuristic, with
// maxNodes capping each cell (0 = exact).
func gridSessionOptions(maxNodes int64) session.Options {
	return session.Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy, UseHeuristic: true, MaxNodes: maxNodes}
}

// GridBench measures the grid on the bigcomp-giant instance:
// independent per-cell MaxRFC calls versus one session FindGrid,
// asserting cell-for-cell equality.
func GridBench(cfg Config) (res GridBenchResult, err error) {
	g, desc := coreBenchInstance(cfg.scale())
	spec, qs, err := gridBenchQueries(cfg.GridSpec)
	if err != nil {
		return GridBenchResult{}, err
	}
	res = GridBenchResult{
		Graph:    desc,
		GridSpec: spec,
		AllMatch: true,
	}
	sampler := startPeakSampler()
	defer func() { res.PeakAllocBytes = sampler.Stop() }()
	sopt := gridSessionOptions(cfg.MaxNodes)

	// Independent path: each cell pays the full pipeline. Best of 3
	// per cell.
	indSizes := make([]int, len(qs))
	for i, q := range qs {
		delta := int(q.Delta)
		if q.Weak {
			delta = int(g.N())
		}
		cell := GridBenchCell{K: int(q.K), Delta: delta}
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r, err := core.MaxRFC(g, core.Options{
				K: int(q.K), Delta: delta,
				UseBounds: true, Extra: bounds.ColorfulDegeneracy,
				UseHeuristic: true, MaxNodes: cfg.MaxNodes,
			})
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return res, err
			}
			if rep == 0 || elapsed < cell.IndSecs {
				cell.IndSecs = elapsed
			}
			cell.Size = r.Size()
		}
		indSizes[i] = cell.Size
		res.Cells = append(res.Cells, cell)
		res.IndependentSeconds += cell.IndSecs
	}

	// Session path: a fresh session per repetition (a warm one would
	// answer the repeat grid from memory and measure nothing).
	for rep := 0; rep < 3; rep++ {
		s := session.New(g, sopt)
		start := time.Now()
		rs, err := s.FindGrid(qs)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return res, err
		}
		for i := range qs {
			if rs[i].Size() != indSizes[i] {
				res.AllMatch = false
			}
		}
		if rep == 0 || elapsed < res.SessionSeconds {
			res.SessionSeconds = elapsed
			st := s.Stats()
			res.ReductionBuilds = st.ReductionBuilds
			res.ReductionReuses = st.ReductionReuses
			res.WarmStarts = st.WarmStarts
			res.DominanceSkips = st.DominanceSkips
			res.SessionNodes = st.Nodes
		}
	}
	if res.SessionSeconds > 0 {
		res.Speedup = res.IndependentSeconds / res.SessionSeconds
	}
	return res, nil
}

// WriteGridBench runs GridBench, writes its JSON record to w and, when
// mergePath names an existing core record (BENCH_core.json), embeds the
// grid result into it under "grid" so the repo keeps one perf
// trajectory file.
func WriteGridBench(cfg Config, w io.Writer, mergePath string) error {
	res, err := GridBench(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.AllMatch {
		return fmt.Errorf("grid bench: session cells diverged from independent runs; record not trustworthy")
	}
	if mergePath == "" {
		return nil
	}
	rec, err := LoadCoreBench(mergePath)
	if err != nil {
		return fmt.Errorf("load %s: %w", mergePath, err)
	}
	rec.Grid = &res
	return writeCoreRecord(mergePath, rec)
}

// writeCoreRecord atomically replaces the committed perf-trajectory
// file: encode fully before touching it, then swap with a rename so a
// failure mid-write cannot destroy the record.
func writeCoreRecord(path string, rec CoreBenchResult) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
