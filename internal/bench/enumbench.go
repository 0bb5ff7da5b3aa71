package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/enum"
	"fairclique/internal/session"
)

// EnumBenchTopR records the diversified top-r experiment: the greedy
// max-coverage cut of the optimum set versus the naive r-best-by-size
// baseline (the first r cliques of the canonical set — every optimum
// has the same size, so "best by size" degenerates to enumeration
// order). The claim the record certifies: diversification covers
// strictly more distinct vertices.
type EnumBenchTopR struct {
	K     int `json:"k"`
	Delta int `json:"delta"`
	R     int `json:"r"`
	// SetSize is the full optimum set's cardinality (the cut only
	// means something when r < set size).
	SetSize int `json:"set_size"`
	// DiversifiedCoverage / BaselineCoverage count distinct vertices
	// across the r returned cliques.
	DiversifiedCoverage int  `json:"diversified_coverage"`
	BaselineCoverage    int  `json:"baseline_coverage"`
	CoverageWin         bool `json:"coverage_win"`
}

// EnumBenchResult is the enumeration experiment (`benchmark -exp
// enum`): the session engine's collect-at-optimum enumeration versus
// the Bron–Kerbosch all-optima baseline on the same cell of the
// bigcomp-giant instance, hard-fail-verified to return the identical
// clique set, plus the top-r coverage comparison. Merged into
// BENCH_core.json by `make bench`.
type EnumBenchResult struct {
	Graph CoreBenchGraph `json:"graph"`
	K     int            `json:"k"`
	Delta int            `json:"delta"`
	Size  int            `json:"size"`
	Count int            `json:"count"`
	// SessionSeconds is the engine enumeration on a fresh session per
	// repetition (a warm one would answer from the enumeration cache);
	// BaselineSeconds is enum.AllMaxFairCliques. Best of 3 each.
	SessionSeconds  float64 `json:"session_seconds"`
	BaselineSeconds float64 `json:"baseline_seconds"`
	Speedup         float64 `json:"speedup_baseline_over_session"`
	// SetsMatch is true iff the engine's set equalled the baseline's
	// clique for clique — recorded, and enforced by WriteEnumBench.
	SetsMatch bool          `json:"sets_match"`
	TopR      EnumBenchTopR `json:"top_r"`
	// PeakAllocBytes is the sampled heap high-water mark across the
	// measured runs.
	PeakAllocBytes uint64 `json:"peak_alloc_bytes"`
}

// enumBenchCell is the headline enumeration cell — the same (k, δ) the
// core engine benchmark runs, so the two records describe one workload.
const (
	enumBenchK     = 2
	enumBenchDelta = 4
	// enumBenchTopRK/Delta pick the instance's many-optima cell ((2,0)
	// has hundreds of overlapping optimum cliques at every scale) and
	// enumBenchR the cut size.
	enumBenchTopRK     = 2
	enumBenchTopRDelta = 0
	enumBenchR         = 5
)

// EnumBench measures enumeration on the bigcomp-giant instance: the
// session engine's KindEnumerateAll versus the BK baseline, then the
// diversified top-r cut versus the first-r baseline.
func EnumBench(cfg Config) (res EnumBenchResult, err error) {
	g, desc := coreBenchInstance(cfg.scale())
	res = EnumBenchResult{
		Graph: desc,
		K:     enumBenchK,
		Delta: enumBenchDelta,
	}
	sampler := startPeakSampler()
	defer func() { res.PeakAllocBytes = sampler.Stop() }()
	sopt := session.Options{
		UseBounds:    true,
		Extra:        bounds.ColorfulDegeneracy,
		UseHeuristic: true,
		MaxNodes:     cfg.MaxNodes,
	}
	q := session.Query{K: enumBenchK, Delta: enumBenchDelta, Kind: session.KindEnumerateAll}

	// Engine path: a fresh session per repetition.
	var engineSet *session.ResultSet
	for rep := 0; rep < 3; rep++ {
		s := session.New(g, sopt)
		start := time.Now()
		rs, err := s.Enumerate(q)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return res, err
		}
		if !rs.Exact {
			return res, fmt.Errorf("enum bench: budgeted engine enumeration came back inexact; raise -max-nodes")
		}
		if rep == 0 || elapsed < res.SessionSeconds {
			res.SessionSeconds = elapsed
		}
		engineSet = rs
	}
	res.Size = int(engineSet.Size)
	res.Count = len(engineSet.Cliques)

	// Baseline path: Bron–Kerbosch all-optima carving.
	var baseSet [][]int32
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		baseSet = enum.AllMaxFairCliques(g, enumBenchK, enumBenchDelta)
		if elapsed := time.Since(start).Seconds(); rep == 0 || elapsed < res.BaselineSeconds {
			res.BaselineSeconds = elapsed
		}
	}
	if res.SessionSeconds > 0 {
		res.Speedup = res.BaselineSeconds / res.SessionSeconds
	}

	// The differential: both sets are canonical (ascending cliques in
	// lexicographic order), so equality is positional.
	res.SetsMatch = len(baseSet) == len(engineSet.Cliques)
	if res.SetsMatch {
		for i := range baseSet {
			if !cliqueEq32(baseSet[i], engineSet.Cliques[i]) {
				res.SetsMatch = false
				break
			}
		}
	}

	// Top-r coverage on the many-optima cell, against the first-r cut
	// of the same session's full set.
	s := session.New(g, sopt)
	full, err := s.Enumerate(session.Query{K: enumBenchTopRK, Delta: enumBenchTopRDelta, Kind: session.KindEnumerateAll})
	if err != nil {
		return res, err
	}
	top, err := s.Enumerate(session.Query{K: enumBenchTopRK, Delta: enumBenchTopRDelta, Kind: session.KindTopR, R: enumBenchR})
	if err != nil {
		return res, err
	}
	baseline := full.Cliques
	if len(baseline) > enumBenchR {
		baseline = baseline[:enumBenchR]
	}
	res.TopR = EnumBenchTopR{
		K: enumBenchTopRK, Delta: enumBenchTopRDelta, R: enumBenchR,
		SetSize:             len(full.Cliques),
		DiversifiedCoverage: distinctVertices(top.Cliques),
		BaselineCoverage:    distinctVertices(baseline),
	}
	res.TopR.CoverageWin = res.TopR.DiversifiedCoverage > res.TopR.BaselineCoverage
	return res, nil
}

func cliqueEq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func distinctVertices(cliques [][]int32) int {
	seen := make(map[int32]struct{})
	for _, c := range cliques {
		for _, v := range c {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// WriteEnumBench runs EnumBench, writes its JSON record to w and, when
// mergePath names an existing core record (BENCH_core.json), embeds it
// under "enum". It hard-fails when the engine's clique set diverges
// from the baseline's, when the diversified top-r cut does not cover
// strictly more distinct vertices than the first-r baseline (with the
// full set genuinely larger than r), or when the measured speedup does
// not strictly exceed minSpeedup (0 = no speed gate).
func WriteEnumBench(cfg Config, w io.Writer, mergePath string, minSpeedup float64) error {
	res, err := EnumBench(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.SetsMatch {
		return fmt.Errorf("enum bench: engine clique set diverged from the BK baseline; record not trustworthy")
	}
	if res.TopR.SetSize > res.TopR.R && !res.TopR.CoverageWin {
		return fmt.Errorf("enum bench: diversified top-%d covers %d vertices, first-%d baseline covers %d; diversification must win strictly",
			res.TopR.R, res.TopR.DiversifiedCoverage, res.TopR.R, res.TopR.BaselineCoverage)
	}
	if minSpeedup > 0 && res.Speedup <= minSpeedup {
		return fmt.Errorf("enum bench: engine speedup %.2fx over the BK baseline does not exceed the %.2fx gate",
			res.Speedup, minSpeedup)
	}
	if mergePath == "" {
		return nil
	}
	return mergeCoreBlock(mergePath, "enum", res)
}
