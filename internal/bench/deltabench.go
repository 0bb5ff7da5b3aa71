package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/graph"
	"fairclique/internal/reduce"
	"fairclique/internal/session"
)

// DeltaBenchScenario is one dynamic-update experiment: the same
// single-edge delta handled by a warm session's Apply+requery versus a
// cold NewSession+requery on the mutated graph.
type DeltaBenchScenario struct {
	// Name identifies the delta shape; Op is its human description.
	Name string `json:"name"`
	Op   string `json:"op"`
	// RebuildSeconds is NewSession+requery on the post-delta graph;
	// ApplySeconds is warm-session Apply+requery (best of 3 each).
	RebuildSeconds float64 `json:"rebuild_seconds"`
	ApplySeconds   float64 `json:"apply_seconds"`
	Speedup        float64 `json:"speedup_rebuild_over_apply"`
	// Size is the post-delta optimum; SizesMatch asserts the warm
	// session agreed with the cold rebuild.
	Size       int  `json:"size"`
	SizesMatch bool `json:"sizes_match"`
	// RequeryNodes is the branch-node count of the post-Apply requery
	// (0 = the retained bound+seed answered it with zero branching).
	RequeryNodes int64 `json:"requery_nodes"`
	// Invalidation counters of the measured Apply.
	CompPrepsReused  int64 `json:"comp_preps_reused"`
	SnapshotsReused  int64 `json:"snapshots_reused"`
	SnapshotsPatched int64 `json:"snapshots_patched"`
	SnapshotsRippled int64 `json:"snapshots_rippled"`
}

// DeltaBenchResult is the dynamic-session record merged into
// BENCH_core.json under "delta".
type DeltaBenchResult struct {
	Graph CoreBenchGraph `json:"graph"`
	// K/Delta is the requery cell.
	K     int                  `json:"k"`
	Delta int                  `json:"delta"`
	Runs  []DeltaBenchScenario `json:"runs"`
	// PeakAllocBytes is the sampled heap high-water mark across the
	// measured runs (runtime.ReadMemStats).
	PeakAllocBytes uint64 `json:"peak_alloc_bytes"`
}

// deltaBenchEdges picks the benchmark deltas structurally (no reliance
// on generator internals): shell vertices of the bigcomp instance are
// the degree-2 cycle, so a chord between two far-apart degree-2
// vertices is a genuine insertion with an empty common neighborhood,
// and a cycle edge between degree-2 vertices is a deletion far from
// the dense nucleus.
func deltaBenchEdges(g *graph.Graph) (chord [2]int32, cycleEdge [2]int32, err error) {
	var deg2 []int32
	for v := int32(0); v < g.N(); v++ {
		if g.Deg(v) == 2 {
			deg2 = append(deg2, v)
		}
	}
	if len(deg2) < 64 {
		return chord, cycleEdge, fmt.Errorf("delta bench: instance has only %d degree-2 vertices", len(deg2))
	}
	u := deg2[8]
	for _, v := range deg2[len(deg2)/2:] {
		if v != u && !g.HasEdge(u, v) {
			chord = [2]int32{u, v}
			break
		}
	}
	for _, v := range deg2 {
		for _, w := range g.Neighbors(v) {
			if g.Deg(w) == 2 {
				cycleEdge = [2]int32{v, w}
				return chord, cycleEdge, nil
			}
		}
	}
	return chord, cycleEdge, fmt.Errorf("delta bench: no shell cycle edge found")
}

// nucleusEdge picks an edge of the k = q.K reduction with an endpoint
// outside the query's witness clique: deleting it touches the reduced
// nucleus, so Apply re-peels it, while the witness survives in the
// pool and the requery stays a dominance skip.
func nucleusEdge(g *graph.Graph, q session.Query, sopt session.Options) ([2]int32, error) {
	r, err := session.New(g, sopt).Find(q)
	if err != nil {
		return [2]int32{}, err
	}
	witness := make(map[int32]bool, len(r.Clique))
	for _, v := range r.Clique {
		witness[v] = true
	}
	sub, _ := reduce.PipelineN(g, q.K, 1)
	for e := int32(0); e < sub.G.M(); e++ {
		u, v := sub.G.Edge(e)
		if u, v = sub.ToParent[u], sub.ToParent[v]; !witness[u] || !witness[v] {
			return [2]int32{u, v}, nil
		}
	}
	return [2]int32{}, fmt.Errorf("delta bench: every reduced edge lies in the witness")
}

// DeltaBench measures single-edge dynamic updates on the bigcomp-giant
// instance: the acceptance claim is that Apply+requery on a warm
// session beats NewSession+requery because the delta lands in the
// cheap shell while the reduction nucleus, the prepared component
// machinery and the solved-cell bounds all carry over. A third
// scenario deletes a nucleus edge off the witness: the requery stays
// a dominance skip, so its time is the Apply's re-peel of the nucleus.
func DeltaBench(cfg Config) (res DeltaBenchResult, err error) {
	g, desc := coreBenchInstance(cfg.scale())
	q := session.Query{K: 2, Delta: 2}
	res = DeltaBenchResult{Graph: desc, K: int(q.K), Delta: int(q.Delta)}
	sampler := startPeakSampler()
	defer func() { res.PeakAllocBytes = sampler.Stop() }()
	sopt := session.Options{
		UseBounds:    true,
		Extra:        bounds.ColorfulDegeneracy,
		UseHeuristic: true,
		MaxNodes:     cfg.MaxNodes,
	}
	chord, cycleEdge, err := deltaBenchEdges(g)
	if err != nil {
		return res, err
	}
	nucleus, err := nucleusEdge(g, q, sopt)
	if err != nil {
		return res, err
	}
	scenarios := []struct {
		name string
		op   string
		d    *graph.Delta
	}{
		{"insert-shell-chord", fmt.Sprintf("+e %d-%d", chord[0], chord[1]),
			&graph.Delta{AddEdges: [][2]int32{chord}}},
		{"delete-shell-edge", fmt.Sprintf("-e %d-%d", cycleEdge[0], cycleEdge[1]),
			&graph.Delta{DelEdges: [][2]int32{cycleEdge}}},
		{"delete-nucleus-edge", fmt.Sprintf("-e %d-%d", nucleus[0], nucleus[1]),
			&graph.Delta{DelEdges: [][2]int32{nucleus}}},
	}

	for _, sc := range scenarios {
		run := DeltaBenchScenario{Name: sc.name, Op: sc.op, SizesMatch: true}

		// Cold baseline: the mutated graph handled the pre-refactor way —
		// a brand-new session plus the requery. Best of 3.
		mutated, _, err := graph.ApplyDelta(g, sc.d)
		if err != nil {
			return res, err
		}
		rebuildSize := 0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			cold := session.New(mutated, sopt)
			r, err := cold.Find(q)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return res, err
			}
			rebuildSize = r.Size()
			if rep == 0 || elapsed < run.RebuildSeconds {
				run.RebuildSeconds = elapsed
			}
		}

		// Warm path: a session that has already answered the cell gets
		// the delta via Apply and re-answers. Fresh warm session per rep
		// (a repeated Apply of the same delta would be a no-op).
		for rep := 0; rep < 3; rep++ {
			warm := session.New(g, sopt)
			if _, err := warm.Find(q); err != nil {
				return res, err
			}
			start := time.Now()
			ast, err := warm.Apply(sc.d)
			if err != nil {
				return res, err
			}
			r, err := warm.Find(q)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return res, err
			}
			if r.Size() != rebuildSize {
				run.SizesMatch = false
			}
			if rep == 0 || elapsed < run.ApplySeconds {
				run.ApplySeconds = elapsed
				run.Size = r.Size()
				run.RequeryNodes = r.Stats.Nodes
				run.CompPrepsReused = ast.CompPrepsReused
				run.SnapshotsReused = ast.SnapshotsReused
				run.SnapshotsPatched = ast.SnapshotsPatched
				run.SnapshotsRippled = ast.SnapshotsRippled
			}
		}
		if run.ApplySeconds > 0 {
			run.Speedup = run.RebuildSeconds / run.ApplySeconds
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// WriteDeltaBench runs DeltaBench, writes its JSON record to w and,
// when mergePath names an existing core record, embeds it under
// "delta" (atomically, like the grid record).
func WriteDeltaBench(cfg Config, w io.Writer, mergePath string) error {
	res, err := DeltaBench(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	for _, run := range res.Runs {
		if !run.SizesMatch {
			return fmt.Errorf("delta bench: %s diverged from the cold rebuild; record not trustworthy", run.Name)
		}
	}
	if mergePath == "" {
		return nil
	}
	return mergeCoreBlock(mergePath, "delta", res)
}
