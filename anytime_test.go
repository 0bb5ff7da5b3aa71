package fairclique

import (
	"testing"
	"time"
)

// sameClique reports whether two cliques are identical as slices.
func sameClique(a, b []int) bool {
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

// Without a deadline the search must stay bit-deterministic: every
// bound configuration answers exactly, with a zero gap, at the oracle
// optimum — and re-running the same configuration returns the
// identical clique (the anytime certificate machinery must stay
// dormant when no budget is set).
func TestAnytimeOffPreservesExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle in -short mode")
	}
	for seed := uint64(0); seed < 4; seed++ {
		n := 13 + int(seed) // 13..16 vertices
		g := buildRandom(seed+4200, n, 0.5)
		bf := newBruteForce(t, g)
		for _, mode := range []struct {
			name  string
			k     int
			delta int // for the oracle; -1 = weak
			opt   Options
		}{
			{"relative", 2, 1, Options{K: 2, Delta: 1}},
			{"strong", 2, 0, Options{K: 2, Delta: 0}},
			{"weak", 2, -1, Options{K: 2, Delta: n}},
		} {
			truth, _ := bf.opt(mode.k, mode.delta)
			for _, ub := range allBoundConfigs {
				opt := mode.opt
				opt.Bound = ub
				res, err := Find(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Exact || res.Gap != 0 || res.UpperBound != res.Size() {
					t.Fatalf("seed %d %s bound %d: exact=%v ub=%d gap=%d size=%d",
						seed, mode.name, ub, res.Exact, res.UpperBound, res.Gap, res.Size())
				}
				if res.Size() != truth {
					t.Fatalf("seed %d %s bound %d: size %d, oracle %d",
						seed, mode.name, ub, res.Size(), truth)
				}
				again, err := Find(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameClique(res.Clique, again.Clique) {
					t.Fatalf("seed %d %s bound %d: non-deterministic clique %v vs %v",
						seed, mode.name, ub, res.Clique, again.Clique)
				}
			}
		}
	}
}

// Budgeted searches on oracle-sized graphs must keep the sandwich
// incumbent <= optimum <= certificate across every bound config, both
// budget knobs, and all three fairness modes, and any returned clique
// must be valid.
func TestAnytimeSandwichVsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle in -short mode")
	}
	for seed := uint64(0); seed < 6; seed++ {
		n := 13 + int(seed)%6
		g := buildRandom(seed+7700, n, 0.55)
		bf := newBruteForce(t, g)
		budgets := []Options{
			{MaxNodes: 1},
			{MaxNodes: 7},
			{Deadline: time.Nanosecond}, // expires essentially immediately
		}
		for _, mode := range []struct {
			name  string
			delta int // oracle encoding; -1 = weak
			base  Options
		}{
			{"relative", 2, Options{K: 2, Delta: 2}},
			{"strong", 0, Options{K: 2, Delta: 0}},
			{"weak", -1, Options{K: 2, Delta: n}},
		} {
			truth, _ := bf.opt(2, mode.delta)
			for _, ub := range allBoundConfigs {
				for _, b := range budgets {
					opt := mode.base
					opt.Bound = ub
					opt.MaxNodes = b.MaxNodes
					opt.Deadline = b.Deadline
					res, err := Find(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if res.Size() > truth {
						t.Fatalf("seed %d %s bound %d budget %+v: incumbent %d beats optimum %d",
							seed, mode.name, ub, b, res.Size(), truth)
					}
					if res.UpperBound < truth {
						t.Fatalf("seed %d %s bound %d budget %+v: certificate %d undercuts optimum %d",
							seed, mode.name, ub, b, res.UpperBound, truth)
					}
					if res.Gap != res.UpperBound-res.Size() || res.Gap < 0 {
						t.Fatalf("seed %d %s: gap accounting: size=%d ub=%d gap=%d",
							seed, mode.name, res.Size(), res.UpperBound, res.Gap)
					}
					if res.Exact && res.Size() != truth {
						t.Fatalf("seed %d %s bound %d budget %+v: claims exact at %d, optimum %d",
							seed, mode.name, ub, b, res.Size(), truth)
					}
					if res.Clique != nil {
						k, delta := 2, mode.delta
						if delta < 0 {
							delta = n
						}
						if !g.IsFairClique(res.Clique, k, delta) {
							t.Fatalf("seed %d %s: incumbent is not a fair clique", seed, mode.name)
						}
					}
				}
			}
		}
	}
}

// The public Deadline knob round-trips: a generous deadline changes
// nothing, a negative deadline is rejected at the session surface, and
// QuerySpec budgets flow through Session.Find.
func TestDeadlineSurface(t *testing.T) {
	g := buildComplete(8, 4)
	res, err := Find(g, Options{K: 2, Delta: 0, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Size() != 8 || res.Gap != 0 {
		t.Fatalf("generous deadline: exact=%v size=%d gap=%d", res.Exact, res.Size(), res.Gap)
	}

	s := NewSession(g)
	if _, err := s.Find(QuerySpec{K: 2, Deadline: -time.Second}); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if _, err := s.Find(QuerySpec{K: 2, MaxNodes: -1}); err == nil {
		t.Fatal("negative max nodes accepted")
	}
	sres, err := s.Find(QuerySpec{K: 2, Deadline: time.Hour, MaxNodes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Exact || sres.Size() != 8 {
		t.Fatalf("unfired session budget: exact=%v size=%d", sres.Exact, sres.Size())
	}
}
