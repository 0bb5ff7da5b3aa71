package fairclique

import (
	"testing"
)

// allBoundConfigs is the public Table II sweep.
var allBoundConfigs = []UpperBound{
	UBAdvanced, UBDegeneracy, UBHIndex,
	UBColorfulDegeneracy, UBColorfulHIndex, UBColorfulPath,
}

// independentFind runs the one-shot engine for the same cell a session
// query describes: the reference every grid cell must match.
func independentFind(t *testing.T, g *Graph, spec QuerySpec, bound UpperBound) *Result {
	t.Helper()
	delta := spec.Delta
	switch spec.Mode {
	case ModeWeak:
		delta = g.N()
	case ModeStrong:
		delta = 0
	}
	res, err := Find(g, Options{K: spec.K, Delta: delta, Bound: bound})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The differential grid wall: on fuzzed random graphs, every cell of
// Session.FindGrid must exactly match an independent Find call — same
// size, and a valid fair clique for the cell's own constraint — across
// all six Table II bound configurations and both weak and strong modes
// alongside the relative cells. Every configuration runs twice: a
// serial session and a Workers=4 session, the latter splitting every
// cell's search across workers (root branches from a shared cursor)
// on exactly the same grid — the differential guard of the parallel
// search.
func TestSessionGridMatchesIndependentFindAllBounds(t *testing.T) {
	var reuses int64
	for seed := uint64(0); seed < 6; seed++ {
		n := 26 + int(seed%3)*6
		g := buildRandom(seed, n, 0.35+0.05*float64(seed%3))
		var specs []QuerySpec
		for k := 1; k <= 3; k++ {
			for d := 0; d <= 2; d++ {
				specs = append(specs, QuerySpec{K: k, Delta: d})
			}
			specs = append(specs,
				QuerySpec{K: k, Mode: ModeWeak},
				QuerySpec{K: k, Mode: ModeStrong})
		}
		// Rotate through the six bound configurations across the fuzz
		// instances and run every configuration on the first instance.
		configs := allBoundConfigs
		if seed > 0 {
			configs = []UpperBound{allBoundConfigs[seed%6]}
		}
		for _, bound := range configs {
			s := NewSession(g, SessionOptions{Bound: bound})
			split := NewSession(g, SessionOptions{Bound: bound, Workers: 4})
			rs, err := s.FindGrid(specs)
			if err != nil {
				t.Fatal(err)
			}
			rsSplit, err := split.FindGrid(specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != len(specs) {
				t.Fatalf("got %d results for %d specs", len(rs), len(specs))
			}
			for i, spec := range specs {
				want := independentFind(t, g, spec, bound)
				if rs[i].Size() != want.Size() {
					t.Fatalf("seed=%d bound=%v spec=%+v: grid %d, independent %d",
						seed, bound, spec, rs[i].Size(), want.Size())
				}
				if rsSplit[i].Size() != want.Size() {
					t.Fatalf("seed=%d bound=%v spec=%+v: split grid %d, independent %d",
						seed, bound, spec, rsSplit[i].Size(), want.Size())
				}
				if rs[i].Size() > 0 {
					delta := spec.Delta
					switch spec.Mode {
					case ModeWeak:
						delta = g.N()
					case ModeStrong:
						delta = 0
					}
					if !g.IsFairClique(rs[i].Clique, spec.K, delta) {
						t.Fatalf("seed=%d bound=%v spec=%+v: grid clique invalid", seed, bound, spec)
					}
					if !g.IsFairClique(rsSplit[i].Clique, spec.K, delta) {
						t.Fatalf("seed=%d bound=%v spec=%+v: split grid clique invalid", seed, bound, spec)
					}
					if !rs[i].Exact || !rsSplit[i].Exact {
						t.Fatalf("seed=%d bound=%v spec=%+v: grid cell inexact without MaxNodes", seed, bound, spec)
					}
				}
			}
			st := s.Stats()
			if st.Queries != int64(len(specs)) {
				t.Fatalf("seed=%d: stats counted %d queries, want %d", seed, st.Queries, len(specs))
			}
			if st.ReductionBuilds > 3 {
				t.Fatalf("seed=%d: %d reduction builds for 3 distinct k", seed, st.ReductionBuilds)
			}
			reuses += st.ReductionReuses
		}
	}
	// Satellite requirement: the reduction/prep cache must be provably
	// exercised by the grids (queries served without a rebuild).
	if reuses == 0 {
		t.Fatal("no grid query reused a cached reduction")
	}
}

// Session.Stats must add up across a grid: nodes of the cells, warm
// starts and dominance skips all land in one place (the satellite's
// aggregation story).
func TestSessionStatsAggregation(t *testing.T) {
	g := buildComplete(10, 8) // skewed K10: optima 4/5/8/10 at δ=0/1/4/6
	s := NewSession(g)
	specs := []QuerySpec{
		{K: 2, Delta: 6}, {K: 2, Delta: 4}, {K: 2, Delta: 1}, {K: 2, Delta: 0},
	}
	rs, err := s.FindGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{10, 8, 5, 4} {
		if rs[i].Size() != want {
			t.Fatalf("cell %d: size %d, want %d", i, rs[i].Size(), want)
		}
	}
	st := s.Stats()
	if st.Queries != 4 {
		t.Fatalf("queries = %d, want 4", st.Queries)
	}
	if st.ReductionBuilds != 1 || st.ReductionReuses != 3 {
		t.Fatalf("reduction builds/reuses = %d/%d, want 1/3", st.ReductionBuilds, st.ReductionReuses)
	}
	var cellNodes int64
	for _, r := range rs {
		cellNodes += r.Stats.Nodes
	}
	if st.Nodes != cellNodes {
		t.Fatalf("session nodes %d != sum of cell nodes %d", st.Nodes, cellNodes)
	}
	// Re-running the whole grid must be pure dominance skips.
	if _, err := s.FindGrid(specs); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.Nodes != st.Nodes {
		t.Fatalf("grid re-run branched %d extra nodes", st2.Nodes-st.Nodes)
	}
	if st2.DominanceSkips != st.DominanceSkips+4 {
		t.Fatalf("grid re-run skips = %d, want %d", st2.DominanceSkips, st.DominanceSkips+4)
	}
}

// Sessions answer weak/strong cells identically to the one-shot Find
// with the same Mode.
func TestSessionModesMatchDedicatedEntryPoints(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := buildRandom(seed+50, 30, 0.4)
		s := NewSession(g)
		for k := 1; k <= 3; k++ {
			weak, err := s.Find(QuerySpec{K: k, Mode: ModeWeak})
			if err != nil {
				t.Fatal(err)
			}
			wantWeak, err := findMode(g, k, ModeWeak)
			if err != nil {
				t.Fatal(err)
			}
			if weak.Size() != wantWeak.Size() {
				t.Fatalf("seed=%d k=%d: session weak %d, one-shot %d",
					seed, k, weak.Size(), wantWeak.Size())
			}
			strong, err := s.Find(QuerySpec{K: k, Mode: ModeStrong})
			if err != nil {
				t.Fatal(err)
			}
			wantStrong, err := findMode(g, k, ModeStrong)
			if err != nil {
				t.Fatal(err)
			}
			if strong.Size() != wantStrong.Size() {
				t.Fatalf("seed=%d k=%d: session strong %d, one-shot %d",
					seed, k, strong.Size(), wantStrong.Size())
			}
		}
	}
}

// Sessions snapshot the graph at creation; the underlying Graph object
// remains usable for independent queries afterwards.
func TestSessionSnapshotSemantics(t *testing.T) {
	g := buildComplete(8, 4)
	s := NewSession(g)
	before, err := s.Find(QuerySpec{K: 2, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != 8 {
		t.Fatalf("session on K8: %d, want 8", before.Size())
	}
	// Mutate the graph: the session must keep answering on the frozen
	// snapshot.
	v := g.AddVertex(AttrA)
	for u := 0; u < v; u++ {
		g.AddEdge(u, v)
	}
	after, err := s.Find(QuerySpec{K: 2, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 8 {
		t.Fatalf("session observed a post-freeze mutation: %d, want 8", after.Size())
	}
	// A fresh session (and plain Find) see the new vertex.
	fresh, err := NewSession(g).Find(QuerySpec{K: 2, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Size() != 9 {
		t.Fatalf("fresh session: %d, want 9", fresh.Size())
	}
}

func TestSessionValidationErrors(t *testing.T) {
	s := NewSession(buildComplete(6, 3))
	if _, err := s.Find(QuerySpec{K: 0}); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := s.Find(QuerySpec{K: 2, Delta: -1}); err == nil {
		t.Fatal("negative delta must error")
	}
	if _, err := s.Find(QuerySpec{K: 2, Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode must error")
	}
	if _, err := s.FindGrid([]QuerySpec{{K: 2, Delta: 1}, {K: 0}}); err == nil {
		t.Fatal("invalid grid cell must error")
	}
}
