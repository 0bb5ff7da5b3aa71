package core

import (
	"testing"
	"testing/quick"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/enum"
	"fairclique/internal/graph"
	"fairclique/internal/sched"
)

// sandwich asserts the anytime contract on a small graph: the incumbent
// never beats the exhaustive optimum and the certificate never
// undercuts it.
func sandwich(t *testing.T, res *Result, opt int, label string) {
	t.Helper()
	if res.Size() > opt {
		t.Fatalf("%s: incumbent %d beats the optimum %d", label, res.Size(), opt)
	}
	if int(res.UpperBound) < opt {
		t.Fatalf("%s: certified upper bound %d undercuts the optimum %d", label, res.UpperBound, opt)
	}
	if res.UpperBound < int32(res.Size()) {
		t.Fatalf("%s: upper bound %d below incumbent %d", label, res.UpperBound, res.Size())
	}
}

// An already-expired deadline returns immediately with a certificate
// that still sandwiches the optimum, across bound configs.
func TestExpiredDeadlineSandwich(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	for seed := uint64(0); seed < 20; seed++ {
		g := random(seed, 14, 0.5)
		truth := len(enum.BruteForceMaxFair(g, 2, 1))
		for _, useHeur := range []bool{false, true} {
			res := mustMaxRFC(t, g, Options{
				K: 2, Delta: 1, Deadline: past,
				UseBounds: true, Extra: bounds.ColorfulPath, UseHeuristic: useHeur,
			})
			// A graph the reduction empties is answered exactly (and
			// instantly) even past the deadline; anything else must abort.
			if res.Stats.ReducedVertices > 0 && !res.Stats.Aborted {
				t.Fatalf("seed %d: expired deadline must abort", seed)
			}
			sandwich(t, res, truth, "expired deadline")
			if res.Clique != nil && !g.IsFairClique(res.Clique, 2, 1) {
				t.Fatalf("seed %d: incumbent is not a fair clique", seed)
			}
		}
	}
}

// A tiny node budget yields a sound sandwich for every configuration,
// including parallel and pool-backed runs.
func TestNodeBudgetSandwich(t *testing.T) {
	f := func(seed uint64, n8, k8, d8, cap8 uint8) bool {
		n := int(n8%16) + 2
		k := int(k8%3) + 1
		delta := int(d8 % 4)
		cap := int64(cap8%40) + 1
		g := random(seed, n, 0.5)
		truth := len(enum.BruteForceMaxFair(g, k, delta))
		for _, workers := range []int{1, 4} {
			res, err := MaxRFC(g, Options{K: k, Delta: delta, MaxNodes: cap, Workers: workers, UseBounds: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Size() > truth || int(res.UpperBound) < truth || res.UpperBound < int32(res.Size()) {
				t.Logf("seed=%d n=%d k=%d d=%d cap=%d w=%d: size=%d ub=%d truth=%d",
					seed, n, k, delta, cap, workers, res.Size(), res.UpperBound, truth)
				return false
			}
			if res.Clique != nil && !g.IsFairClique(res.Clique, k, delta) {
				return false
			}
			if !res.Stats.Aborted && res.Size() != truth {
				return false // a run claiming exactness must be exact
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Pool-backed searches honor the same contract: the driver prices the
// root branches it skipped and donated subtrees price themselves.
func TestNodeBudgetSandwichPooled(t *testing.T) {
	pool := sched.NewPool()
	defer pool.Close()
	for seed := uint64(0); seed < 15; seed++ {
		g := random(seed, 14, 0.6)
		truth := len(enum.BruteForceMaxFair(g, 1, 2))
		for _, cap := range []int64{1, 5, 25} {
			res := mustMaxRFC(t, g, Options{K: 1, Delta: 2, MaxNodes: cap, Pool: pool, SkipReduction: true})
			sandwich(t, res, truth, "pooled budget")
		}
	}
}

// Without any budget the search is exact and reports a zero gap.
func TestExactRunReportsZeroGap(t *testing.T) {
	g := example1Graph()
	for _, opt := range allVariants(3, 1) {
		res := mustMaxRFC(t, g, opt)
		if res.Stats.Aborted {
			t.Fatalf("%+v: exact run reported aborted", opt)
		}
		if res.UpperBound != int32(res.Size()) {
			t.Fatalf("%+v: exact run upper bound %d != size %d", opt, res.UpperBound, res.Size())
		}
		if res.Stats.FrontierPriced != 0 {
			t.Fatalf("%+v: exact run priced %d frontier nodes", opt, res.Stats.FrontierPriced)
		}
	}
	// A generous budget that never fires behaves exactly.
	res := mustMaxRFC(t, g, Options{K: 3, Delta: 1, Deadline: time.Now().Add(time.Hour), MaxNodes: 1 << 40})
	if res.Stats.Aborted || res.Size() != 7 || res.UpperBound != 7 {
		t.Fatalf("unfired budget: aborted=%v size=%d ub=%d", res.Stats.Aborted, res.Size(), res.UpperBound)
	}
}

// A bound injected before the search attaches finishes it early and
// exact once the incumbent meets it; an injected seed becomes the
// incumbent.
func TestInjectorPendingBoundAndSeed(t *testing.T) {
	g := example1Graph() // optimum 7 for k=3, δ=1
	inj := NewInjector()
	inj.InjectBound(7)
	opt := Options{K: 3, Delta: 1, Injector: inj}
	res := mustMaxRFC(t, g, opt)
	if res.Stats.Aborted || res.Size() != 7 || res.UpperBound != 7 {
		t.Fatalf("injected bound: aborted=%v size=%d ub=%d", res.Stats.Aborted, res.Size(), res.UpperBound)
	}

	// Pending seed: a valid 6-vertex fair clique warm-starts the run.
	seedClique := []int32{0, 1, 2, 3, 4, 5}
	if !g.IsFairClique(seedClique, 3, 1) {
		t.Fatal("test setup: seed is not a fair clique")
	}
	inj = NewInjector()
	inj.InjectSeed(seedClique)
	res = mustMaxRFC(t, g, Options{K: 3, Delta: 1, Injector: inj})
	if res.Size() != 7 {
		t.Fatalf("seeded run: size %d; want 7", res.Size())
	}

	// Seed + matching bound: the search can return without branching,
	// still exact at the seed.
	inj = NewInjector()
	inj.InjectSeed(seedClique)
	inj.InjectBound(6)
	res = mustMaxRFC(t, g, Options{K: 3, Delta: 1, Injector: inj})
	if res.Stats.Aborted || res.Size() != 6 || res.UpperBound != 6 {
		t.Fatalf("seed+bound: aborted=%v size=%d ub=%d", res.Stats.Aborted, res.Size(), res.UpperBound)
	}
	if res.Stats.Nodes != 0 {
		t.Fatalf("seed+bound: branched %d nodes; want 0", res.Stats.Nodes)
	}

	// Injections into a detached Injector are buffered, not lost, and
	// min/max semantics apply to the buffers.
	inj = NewInjector()
	inj.InjectBound(9)
	inj.InjectBound(7) // min wins
	inj.InjectSeed([]int32{0, 1, 3, 4})
	inj.InjectSeed(seedClique) // max wins
	res = mustMaxRFC(t, g, Options{K: 3, Delta: 1, Injector: inj})
	if res.Stats.Aborted || res.Size() != 7 || res.UpperBound != 7 {
		t.Fatalf("buffered injections: aborted=%v size=%d ub=%d", res.Stats.Aborted, res.Size(), res.UpperBound)
	}
}

// A budget-tripped run whose incumbent meets a trusted bound is still
// exact: the trusted bound proves optimality regardless of the abort.
func TestAbortWithTrustedBoundIsExact(t *testing.T) {
	g := example1Graph()
	res := mustMaxRFC(t, g, Options{
		K: 3, Delta: 1, UseHeuristic: true, StopAtSize: 7,
		Deadline: time.Now().Add(-time.Second),
	})
	// HeurRFC finds the optimum 7 before any branching; the expired
	// deadline must not mark the provably optimal answer inexact.
	if res.Size() == 7 && res.Stats.Aborted {
		t.Fatal("incumbent met the trusted bound but the run reports inexact")
	}
	sandwich(t, res, 7, "trusted bound")
}

// An aborted component is priced once: its unexplored root branches
// (and donated subtrees) carry its frontier, and the component is then
// accounted, so the frontier sweep does not price it whole again. The
// certificate of a budgeted serial search of a one-component graph
// therefore falls below the whole component's Table II bound.
func TestAbortedComponentPricedOnce(t *testing.T) {
	g := random(3, 75, 0.35)
	if got := len(graph.ConnectedComponents(g)); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	truth := len(enum.MaxFairClique(g, 2, 2))
	for _, opt := range sixBoundConfigs(2, 2) {
		opt.SkipReduction, opt.MaxNodes = true, 8
		res := mustMaxRFC(t, g, opt)
		if !res.Stats.Aborted {
			t.Fatalf("%v: an 8-node budget did not abort", opt.Extra)
		}
		sandwich(t, res, truth, opt.Extra.String())
		if whole := bounds.Evaluate(g, 2, opt.Extra); res.UpperBound >= whole {
			t.Fatalf("%v: certificate %d, not below the whole component's bound %d", opt.Extra, res.UpperBound, whole)
		}
	}
}
