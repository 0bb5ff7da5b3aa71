package bench

import (
	"testing"

	"fairclique/internal/core"
	"fairclique/internal/session"
)

// Serial search trees on the full-scale bigcomp-giant instance are
// deterministic, so their sizes are pinned: the W1 9-cell grid of
// `-exp grid` and `-exp sched`, and the exact reference run of
// `-exp anytime`. Parallel runs may branch a few more or fewer nodes,
// but Workers = 1 must not move. A change that alters a tree updates
// these numbers and reports old → new in CHANGES.md.
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
}
