package core

import (
	"fmt"
	"sync"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/graph"
)

// prepare freezes g un-reduced, the way most white-box tests want it.
func prepare(g *graph.Graph) *Prepared {
	return PrepareReduced(g, identity(g.N()))
}

// A Prepared must answer an arbitrary sequence of queries with exactly
// the sizes the one-shot MaxRFC reports, sharing one set of successor
// masks across all of them.
func TestPreparedMatchesMaxRFC(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := random(seed, 40, 0.35)
		p := prepare(g)
		for _, kd := range [][2]int{{1, 0}, {2, 1}, {2, 3}, {3, 2}, {1, 40}} {
			k, delta := kd[0], kd[1]
			opt := Options{K: k, Delta: delta, SkipReduction: true,
				UseBounds: true, Extra: bounds.ColorfulDegeneracy}
			want := mustMaxRFC(t, g, opt)
			got, err := p.Search(opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size() != want.Size() {
				t.Fatalf("seed=%d k=%d δ=%d: prepared %d, one-shot %d",
					seed, k, delta, got.Size(), want.Size())
			}
			if got.Size() > 0 && !g.IsFairClique(got.Clique, k, delta) {
				t.Fatalf("seed=%d k=%d δ=%d: prepared result invalid", seed, k, delta)
			}
		}
	}
}

func TestPreparedSearchValidatesOptions(t *testing.T) {
	p := prepare(random(1, 10, 0.5))
	if _, err := p.Search(Options{K: 0, Delta: 1}, nil); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := p.Search(Options{K: 2, Delta: -1}, nil); err == nil {
		t.Fatal("negative delta should error")
	}
}

// A warm-start seed must never change the answer: a seed smaller than
// the optimum is beaten, a seed equal to the optimum is returned
// verbatim (nothing strictly larger exists), and the seeded run visits
// no more nodes than the cold one.
func TestPreparedSeedSemantics(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := random(seed, 36, 0.4)
		p := prepare(g)
		opt := Options{K: 2, Delta: 1, SkipReduction: true}
		cold, err := p.Search(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Size() == 0 {
			continue
		}
		// Seed with the optimum itself.
		warm, err := p.Search(opt, cold.Clique)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Size() != cold.Size() {
			t.Fatalf("seed=%d: optimal seed changed the answer: %d vs %d",
				seed, warm.Size(), cold.Size())
		}
		if !g.IsFairClique(warm.Clique, 2, 1) {
			t.Fatalf("seed=%d: seeded result invalid", seed)
		}
		if warm.Stats.Nodes > cold.Stats.Nodes {
			t.Fatalf("seed=%d: optimal seed increased nodes: %d > %d",
				seed, warm.Stats.Nodes, cold.Stats.Nodes)
		}
		// Seed with a strict sub-clique (drop one vertex of each
		// attribute would break fairness; instead drop a matched pair
		// when the optimum is large enough to stay fair).
		sub := subFairSeed(g, cold.Clique)
		if sub != nil {
			warm2, err := p.Search(opt, sub)
			if err != nil {
				t.Fatal(err)
			}
			if warm2.Size() != cold.Size() {
				t.Fatalf("seed=%d: sub-optimal seed changed the answer: %d vs %d",
					seed, warm2.Size(), cold.Size())
			}
		}
	}
}

// subFairSeed drops one vertex of each attribute from clique when the
// rest still is a (2,1)-fair clique, else returns nil.
func subFairSeed(g *graph.Graph, clique []int32) []int32 {
	var a, b int32 = -1, -1
	for _, v := range clique {
		if g.Attr(v) == graph.AttrA {
			a = v
		} else {
			b = v
		}
	}
	if a < 0 || b < 0 {
		return nil
	}
	sub := make([]int32, 0, len(clique)-2)
	for _, v := range clique {
		if v != a && v != b {
			sub = append(sub, v)
		}
	}
	if !g.IsFairClique(sub, 2, 1) {
		return nil
	}
	return sub
}

// StopAtSize with the true optimum must stop the search early, stay
// exact, and never report an abort.
func TestPreparedStopAtSize(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := random(seed, 40, 0.4)
		p := prepare(g)
		opt := Options{K: 2, Delta: 2, SkipReduction: true}
		cold, err := p.Search(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Size() == 0 {
			continue
		}
		opt.StopAtSize = cold.Size()
		fast, err := p.Search(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Size() != cold.Size() {
			t.Fatalf("seed=%d: StopAtSize changed the answer: %d vs %d",
				seed, fast.Size(), cold.Size())
		}
		if fast.Stats.Aborted {
			t.Fatalf("seed=%d: StopAtSize reported as abort", seed)
		}
		if fast.Stats.Nodes > cold.Stats.Nodes {
			t.Fatalf("seed=%d: StopAtSize increased nodes: %d > %d",
				seed, fast.Stats.Nodes, cold.Stats.Nodes)
		}
		if !g.IsFairClique(fast.Clique, 2, 2) {
			t.Fatalf("seed=%d: StopAtSize result invalid", seed)
		}
		// Seed == StopAtSize: the search should do (almost) nothing.
		zero, err := p.Search(opt, cold.Clique)
		if err != nil {
			t.Fatal(err)
		}
		if zero.Size() != cold.Size() || zero.Stats.Nodes != 0 {
			t.Fatalf("seed=%d: seeded StopAtSize run branched %d nodes for size %d",
				seed, zero.Stats.Nodes, zero.Size())
		}
	}
}

// Concurrent searches over one shared Prepared (the session grid's
// regime), across δ and all six Table II configurations, must each
// match a serial run: same size, nodes and bound counts. The Table II
// profiles they build concurrently must then each hold their own
// Extra's bound; on the sparse fixture the extras' bounds differ. Run
// under -race by make test-race.
func TestPreparedConcurrentSearches(t *testing.T) {
	for _, g := range []*graph.Graph{random(9, 48, 0.35), random(4, 48, 0.12)} {
		concurrentSearches(t, g)
	}
}

func concurrentSearches(t *testing.T, g *graph.Graph) {
	t.Helper()
	p := prepare(g)
	var opts []Options
	for delta := 0; delta <= 5; delta++ {
		for _, opt := range sixBoundConfigs(2, delta) {
			opt.SkipReduction = true
			opts = append(opts, opt)
		}
	}
	ref := prepare(g)
	want := make([]*Result, len(opts))
	for i, opt := range opts {
		res, err := ref.Search(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make([]string, len(opts))
	for round := 0; round < 4; round++ {
		for i, opt := range opts {
			wg.Add(1)
			go func(i int, opt Options) {
				defer wg.Done()
				res, err := p.Search(opt, nil)
				if err != nil {
					errs[i] = err.Error()
					return
				}
				w := want[i]
				if res.Size() != w.Size() || res.Stats.Nodes != w.Stats.Nodes ||
					res.Stats.BoundChecks != w.Stats.BoundChecks || res.Stats.BoundPrunes != w.Stats.BoundPrunes {
					errs[i] = fmt.Sprintf("size %d, %d nodes, %d/%d bound checks/prunes; serial %d, %d, %d/%d",
						res.Size(), res.Stats.Nodes, res.Stats.BoundChecks, res.Stats.BoundPrunes,
						w.Size(), w.Stats.Nodes, w.Stats.BoundChecks, w.Stats.BoundPrunes)
				}
			}(i, opt)
		}
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("δ=%d %v: %s", opts[i].Delta, opts[i].Extra, e)
		}
	}
	for ci := 0; ci < p.Components(); ci++ {
		c := p.comp(ci)
		for _, opt := range opts {
			if got, want := c.profile(opt.Extra).Bound(int32(opt.Delta)), bounds.Evaluate(c.comp, int32(opt.Delta), opt.Extra); got != want {
				t.Fatalf("component %d δ=%d %v: cached profile bounds %d, bounds.Evaluate %d", ci, opt.Delta, opt.Extra, got, want)
			}
		}
	}
}
