package bench

import (
	"testing"
	"time"

	"fairclique/internal/core"
	"fairclique/internal/session"
)

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
