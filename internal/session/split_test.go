package session

import (
	"runtime"
	"testing"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

// The parallel grid differential wall: FindGrid at Workers 4, each
// cell's search on core's private root split, must answer every cell
// exactly like an independent serial run, across all six Table II
// bound configurations and all three fairness modes (strong δ = 0,
// relative δ > 0, weak). Runs under -race via make test-race.
func TestGridSplitDifferential(t *testing.T) {
	var qs []Query
	for k := int32(1); k <= 3; k++ {
		for d := int32(0); d <= 2; d++ {
			qs = append(qs, Query{K: k, Delta: d})
		}
		qs = append(qs, Query{K: k, Weak: true})
	}
	for seed := uint64(0); seed < 3; seed++ {
		g := random(seed, 34, 0.4)
		for _, extra := range bounds.Extras() {
			opt := Options{UseBounds: true, Extra: extra, UseHeuristic: true, Workers: 4}
			rs, err := New(g, opt).FindGrid(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				iq := q
				if iq.Weak {
					iq.Weak, iq.Delta = false, g.N() // weak = unconstrained balance
				}
				want := independent(t, g, iq, Options{UseBounds: true, Extra: extra, UseHeuristic: true})
				if rs[i].Size() != want.Size() {
					t.Fatalf("seed=%d extra=%v (k=%d, δ=%d, weak=%v): split grid %d, independent %d",
						seed, extra, q.K, q.Delta, q.Weak, rs[i].Size(), want.Size())
				}
				if rs[i].Size() > 0 && !g.IsFairClique(rs[i].Clique, int(iq.K), int(iq.Delta)) {
					t.Fatalf("seed=%d extra=%v (k=%d, δ=%d, weak=%v): invalid clique from the split grid",
						seed, extra, q.K, q.Delta, q.Weak)
				}
			}
		}
	}
}

// ringWithCore is one component of n > smallComponentLimit vertices: a
// ring with alternating attributes plus a random dense core on its
// first 30 vertices. Searched without reduction, it takes the private
// root split whenever Workers > 1.
func ringWithCore(seed uint64, n int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(v%2))
		b.AddEdge(int32(v), int32((v+1)%n))
	}
	for u := 0; u < 30; u++ {
		for v := u + 2; v < 30; v++ {
			if r.Bool(0.6) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// starvedGraph is one G(n, 0.5) component with exactly three
// attribute-a vertices: its root has three branches, fewer than the
// workers a Workers: 8 split could start.
func starvedGraph(seed uint64, n int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		attr := graph.AttrB
		if v < 3 {
			attr = graph.AttrA
		}
		b.SetAttr(int32(v), attr)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(0.5) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// An open Workers: 4 session answers Find, FindGrid and Enumerate on
// the private split exactly like an independent serial run, and every
// goroutine a call starts has returned when the call does: a session
// holds no worker between queries, so nobody needs to Close it. The
// same holds after a budget aborts a split and when a component has
// fewer root branches than workers.
func TestOpenSessionRunsPrivateSplit(t *testing.T) {
	g := ringWithCore(4, 1200)
	opt := Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy, UseHeuristic: true, SkipReduction: true}
	var qs []Query
	for k := int32(1); k <= 3; k++ {
		for d := int32(0); d <= 2; d++ {
			qs = append(qs, Query{K: k, Delta: d})
		}
	}

	base := runtime.NumGoroutine()
	settled := func(call string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s left %d goroutines running, baseline %d", call, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	check := func(call string, q Query, got *core.Result) {
		t.Helper()
		want := independent(t, g, q, opt)
		if got.Size() != want.Size() {
			t.Fatalf("%s (k=%d, δ=%d): open session %d, independent %d", call, q.K, q.Delta, got.Size(), want.Size())
		}
		if got.Size() > 0 && !g.IsFairClique(got.Clique, int(q.K), int(q.Delta)) {
			t.Fatalf("%s (k=%d, δ=%d): invalid clique", call, q.K, q.Delta)
		}
	}

	par := opt
	par.Workers = 4
	s := New(g, par)

	res, err := s.Find(qs[4])
	if err != nil {
		t.Fatal(err)
	}
	check("Find", qs[4], res)
	settled("Find")

	rs, err := s.FindGrid(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		check("FindGrid", q, rs[i])
	}
	settled("FindGrid")

	eq := Query{K: 2, Delta: 1, Kind: KindEnumerateAll}
	set, err := s.Enumerate(eq)
	if err != nil {
		t.Fatal(err)
	}
	serial := New(g, opt)
	want, err := serial.Enumerate(eq)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Cliques) == 0 || !eqCliqueSets(set.Cliques, want.Cliques) {
		t.Fatalf("Enumerate: open session %v, independent serial %v", set.Cliques, want.Cliques)
	}
	settled("Enumerate")

	// A fresh session, so no earlier answer settles the query before
	// the budget trips.
	aq := Query{K: 2, Delta: 1, MaxNodes: 100}
	if res, err = New(g, par).Find(aq); err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Aborted {
		t.Fatalf("budgeted Find ran %d nodes without aborting", res.Stats.Nodes)
	}
	if res.Size() > 0 && !g.IsFairClique(res.Clique, int(aq.K), int(aq.Delta)) {
		t.Fatal("aborted Find: invalid clique")
	}
	settled("aborted Find")

	sg := starvedGraph(3, 52)
	sopt := Options{SkipReduction: true}
	sq := Query{K: 1, Delta: 50}
	serialSize := independent(t, sg, sq, sopt).Size()
	sopt.Workers = 8
	for _, maxNodes := range []int64{0, 500} {
		sq.MaxNodes = maxNodes
		got, err := New(sg, sopt).Find(sq)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() > 0 && !sg.IsFairClique(got.Clique, int(sq.K), int(sq.Delta)) {
			t.Fatalf("starved Find (MaxNodes %d): invalid clique", maxNodes)
		}
		if maxNodes == 0 && got.Size() != serialSize {
			t.Fatalf("starved Find: split %d, independent %d", got.Size(), serialSize)
		}
		if maxNodes > 0 && !got.Stats.Aborted {
			t.Fatalf("starved Find ran %d nodes without aborting at MaxNodes %d", got.Stats.Nodes, maxNodes)
		}
		settled("starved Find")
	}
}
