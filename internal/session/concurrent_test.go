package session

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// Concurrent grid cells share the per-k reductions, the prepared
// successor masks, the monotonicity table and the clique pool; every
// cell must still be exact. This is the session-layer race test, run
// under -race by make test-race.
func TestSessionConcurrentGridRace(t *testing.T) {
	opt := Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy, UseHeuristic: true, Workers: 4}
	for seed := uint64(0); seed < 4; seed++ {
		g := random(seed, 40, 0.35)
		var qs []Query
		for k := int32(1); k <= 3; k++ {
			for d := int32(0); d <= 2; d++ {
				qs = append(qs, Query{K: k, Delta: d})
			}
		}
		// Fresh session per round so the grid itself (not a warm cache)
		// is what runs concurrently.
		s := New(g, opt)
		rs, err := s.FindGrid(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want := independent(t, g, q, opt)
			if rs[i].Size() != want.Size() {
				t.Fatalf("seed=%d (k=%d, δ=%d): concurrent grid %d, independent %d",
					seed, q.K, q.Delta, rs[i].Size(), want.Size())
			}
			if rs[i].Size() > 0 && !g.IsFairClique(rs[i].Clique, int(q.K), int(q.Delta)) {
				t.Fatalf("seed=%d (k=%d, δ=%d): invalid clique", seed, q.K, q.Delta)
			}
		}
	}
}

// Individual Find calls racing on one session (the service regime:
// many clients, one warm session) must also stay exact.
func TestSessionConcurrentFindsRace(t *testing.T) {
	g := random(11, 44, 0.35)
	s := New(g, Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy})
	qs := []Query{{K: 1, Delta: 0}, {K: 1, Delta: 3}, {K: 2, Delta: 0}, {K: 2, Delta: 2}, {K: 3, Delta: 1}, {K: 2, Delta: 44}}
	want := make([]int, len(qs))
	for i, q := range qs {
		want[i] = independent(t, g, q, Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy}).Size()
	}
	var wg sync.WaitGroup
	errCh := make(chan string, 64)
	for round := 0; round < 4; round++ {
		for i, q := range qs {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				res, err := s.Find(q)
				if err != nil {
					errCh <- err.Error()
					return
				}
				if res.Size() != want[i] {
					errCh <- "wrong size"
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(errCh)
	for e := range errCh {
		t.Fatal(e)
	}
}

// The session re-query path of TestBranchSteadyStateZeroAllocs
// (internal/core): a warm session answers follow-up queries at 0
// allocs/node. Two regimes are pinned:
//
//   - a repeated cell is a dominance skip — a small node-independent
//     constant of allocations and no branching at all;
//   - a genuinely new cell re-branches on recycled worker arenas, so
//     its allocations are a per-query constant that vanishes against
//     the node count.
func TestSessionRequeryZeroAllocsPerNode(t *testing.T) {
	g := random(42, 90, 0.4)
	s := New(g, Options{SkipReduction: true})

	// Warm: solve the strict cell; its clique seeds the δ=1 re-query.
	if _, err := s.Find(Query{K: 2, Delta: 0}); err != nil {
		t.Fatal(err)
	}

	// Regime 2 first: a brand-new cell on the warm session. Measured
	// with a single tight MemStats window (AllocsPerRun cannot repeat a
	// "first" query — the second run of the same cell short-circuits).
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.Find(Query{K: 2, Delta: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes < 500 {
		t.Fatalf("re-query visited only %d nodes; fixture too small to assert allocs/node", res.Stats.Nodes)
	}
	allocs := float64(after.Mallocs - before.Mallocs)
	if perNode := allocs / float64(res.Stats.Nodes); perNode > 0.05 {
		t.Fatalf("warm re-query allocated %.4f objects/node (%d nodes, %.0f allocs); want 0",
			perNode, res.Stats.Nodes, allocs)
	}

	// Regime 1: repeats of a solved cell never branch and allocate only
	// the result envelope.
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Find(Query{K: 2, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 16 {
		t.Fatalf("dominance-skip repeat allocates %.1f objects; want a tiny constant", avg)
	}
	if st := s.Stats(); st.DominanceSkips < 20 {
		t.Fatalf("repeats were not dominance-skipped: %+v", st)
	}
}

// BenchmarkConcurrentCells is the A/B of live injection on the regime
// it exists for: concurrent cells on one session. Each op builds a
// fresh session with perfbench's search options (Workers 1, the
// colorful degeneracy bound, HeurRFC) on each of the first two
// search-cold instances of seed 13, gen.BigComponent(208+i, 230, 0.5,
// 5120), and answers perfbench's six cells on it from C goroutines, so
// a cell that finishes first broadcasts its bound and clique into the
// cells still branching. "off" skips broadcast. Compare nodes/op and
// ns/op between off and on.
func BenchmarkConcurrentCells(b *testing.B) {
	cells := []Query{{K: 2, Delta: 4}, {K: 2, Delta: 1}, {K: 3, Delta: 2}, {K: 2, Delta: 2}, {K: 4, Delta: 3}, {K: 2, Delta: 3}}
	gs := []*graph.Graph{
		gen.BigComponent(208, 230, 0.5, graph.ChunkBits+1024),
		gen.BigComponent(209, 230, 0.5, graph.ChunkBits+1024),
	}
	opt := Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy, UseHeuristic: true, Workers: 1}
	for _, c := range []int{2, 6} {
		for _, mode := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("C%d/%s", c, mode), func(b *testing.B) {
				defer func(old bool) { liveInjection = old }(liveInjection)
				liveInjection = mode == "on"
				var nodes int64
				for b.Loop() {
					for _, g := range gs {
						nodes += answerConcurrently(b, New(g, opt), cells, c)
					}
				}
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			})
		}
	}
}

// answerConcurrently answers qs on s from c goroutines pulling from one
// cursor and returns the nodes the session branched.
func answerConcurrently(b *testing.B, s *Session, qs []Query, c int) int64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(qs)); i = next.Add(1) - 1 {
				if _, err := s.Find(qs[i]); err != nil {
					b.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	return s.Stats().Nodes
}
