package bench

import (
	"testing"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/heuristic"
	"fairclique/internal/reduce"
	"fairclique/internal/session"
)

// perfbench's search-cold workload replays, per seed, one rotation of
// six cells over six bigcomp instances through its static pipeline,
// and reports the total node count as core.nodes. Workers 1 makes that
// count exact, so it is pinned here per seed. The recipe mirrors
// staticChain and the instance set in perfbench/ (gen.BigComponent with
// a 230-vertex nucleus and a ChunkBits+1024 shell, the cells in
// rotation order, HeurRFC's clique as the search's seed) and must
// change with it. A change that moves a total updates the table and
// reports old → new in CHANGES.md.
func TestSearchColdPerfbenchTrees(t *testing.T) {
	cells := [][2]int32{{2, 4}, {2, 1}, {3, 2}, {2, 2}, {4, 3}, {2, 3}}
	for _, tc := range []struct {
		seed  uint64
		nodes int64
	}{
		{1, 2808291},
		{7, 3380597},
		{13, 3213788},
	} {
		var total int64
		for i := uint64(0); i < 6; i++ {
			g := gen.BigComponent(tc.seed*16+i, 230, 0.5, graph.ChunkBits+1024)
			for _, c := range cells {
				k, delta := c[0], c[1]
				sub, _ := reduce.PipelineN(g, k, 1)
				p := core.PrepareReduced(sub.G, sub.ToParent)
				var seed []int32
				for _, v := range heuristic.HeurRFC(p.Work(), k, delta).Clique {
					seed = append(seed, sub.ToParent[v])
				}
				res, err := p.Search(core.Options{
					K: int(k), Delta: int(delta), UseBounds: true, Extra: bounds.ColorfulDegeneracy, Workers: 1,
				}, seed)
				if err != nil {
					t.Fatal(err)
				}
				total += res.Stats.Nodes
			}
		}
		if total != tc.nodes {
			t.Errorf("seed %d: search-cold rotation branched %d nodes, pinned %d", tc.seed, total, tc.nodes)
		}
	}
}

// Serial search trees on the full-scale bigcomp-giant instance are
// deterministic, so their sizes are pinned: the W1 9-cell grid of
// `-exp grid` and `-exp sched`, the exact reference run of
// `-exp anytime` (also under a deadline that never fires), the W1 run
// of `-exp core`, and the anytime certificate under node budgets.
// Parallel runs may branch a few more or fewer nodes, but Workers = 1
// must not move. A change that alters a tree updates these numbers and
// reports old → new in CHANGES.md.
func TestBigCompSerialTreeSizes(t *testing.T) {
	g, _ := coreBenchInstance(1)
	_, qs, err := gridBenchQueries("")
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(g, gridSessionOptions(0))
	if _, err := s.FindGrid(qs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().Nodes, int64(139273); got != want {
		t.Errorf("W1 grid branched %d session nodes, pinned %d", got, want)
	}
	res, err := core.MaxRFC(g, anytimeOptions)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats.Nodes, int64(57030); got != want {
		t.Errorf("anytime exact run branched %d nodes, pinned %d", got, want)
	}
	// A deadline that never fires walks the same tree to the same exact
	// answer: a budget only stops the search.
	late := anytimeOptions
	late.Deadline = time.Now().Add(time.Hour)
	res, err = core.MaxRFC(g, late)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes != 57030 || res.Size() != 12 || res.UpperBound != 12 || res.Stats.Aborted {
		t.Errorf("anytime run with an hour's deadline: (nodes, size, UB, aborted) = (%d, %d, %d, %v), pinned (57030, 12, 12, false)",
			res.Stats.Nodes, res.Size(), res.UpperBound, res.Stats.Aborted)
	}

	// `-exp core`'s serial search: no bounds, no heuristic.
	res, err = core.MaxRFC(g, core.Options{K: 2, Delta: 4, SkipReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes != 1357865 || res.Size() != 12 {
		t.Errorf("-exp core W1 run branched %d nodes to size %d, pinned 1357865 and 12",
			res.Stats.Nodes, res.Size())
	}

	// The anytime certificate by node budget: (nodes, size, UB) per
	// MaxNodes. Unlike a wall-clock budget it is deterministic.
	for _, p := range []struct {
		budget, nodes int64
		size, ub      int32
	}{
		{1000, 1008, 9, 26},
		{5000, 5008, 12, 26},
		{10000, 10008, 12, 26},
		{20000, 20008, 12, 26},
		{40000, 40008, 12, 26},
		{50000, 50008, 12, 23},
		{55000, 55008, 12, 22},
		{56500, 56504, 12, 20},
	} {
		opt := anytimeOptions
		opt.MaxNodes = p.budget
		res, err := core.MaxRFC(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Nodes != p.nodes || int32(res.Size()) != p.size || res.UpperBound != p.ub {
			t.Errorf("MaxNodes %d: (nodes, size, UB) = (%d, %d, %d), pinned (%d, %d, %d)",
				p.budget, res.Stats.Nodes, res.Size(), res.UpperBound, p.nodes, p.size, p.ub)
		}
	}
}
