package session

import (
	"runtime"
	"testing"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
	"fairclique/internal/sched"
)

// starvedSession builds a single dense component whose search tree is
// deep and skewed — enough branching that a grid cell on it keeps a
// driver busy across several scheduler preemption slices, so released
// executors reliably get to park and steal.
func starvedSession(seed uint64, n int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		attr := graph.AttrB
		if v < n/8 {
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

// waitParked blocks until n executors of the pool are parked hungry,
// so the next search's first donation check sees idle capacity
// deterministically.
func waitParked(pool *sched.Pool, n int) {
	for pool.Idle() != n {
		runtime.Gosched()
	}
}

// The session-lifetime worker set: the Workers-1 persistent executors
// are released into the pool exactly once — at the first parallel
// query — and every later FindGrid (including one answered entirely by
// dominance skips) reuses them instead of spinning a fresh complement.
// WorkerReleases staying at Workers-1 across calls is the reuse
// receipt the acceptance criteria ask for.
func TestGridSharedPoolReleasesSkippedCellWorkers(t *testing.T) {
	g := random(7, 40, 0.35)
	s := New(g, Options{Workers: 4})
	defer s.Close()
	qs := []Query{{K: 1, Delta: 2}, {K: 1, Delta: 1}, {K: 2, Delta: 2}, {K: 2, Delta: 1}}
	if _, err := s.FindGrid(qs); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.WorkerReleases != 3 {
		t.Fatalf("first grid released %d executors, want 3 (Workers-1, once for the session's life)", before.WorkerReleases)
	}
	if _, err := s.FindGrid(qs); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.DominanceSkips - before.DominanceSkips; got != int64(len(qs)) {
		t.Fatalf("repeat grid skipped %d of %d cells", got, len(qs))
	}
	// The persistent executors are still the first call's: no new
	// releases, no per-call pool construction.
	if st.WorkerReleases != 3 {
		t.Fatalf("repeat grid changed WorkerReleases to %d; want it pinned at 3", st.WorkerReleases)
	}
	if got := st.Steals - before.Steals; got != 0 {
		t.Fatalf("zero-branching grid recorded %d steals", got)
	}
}

// The deterministic release/steal handshake at the session layer: a
// released executor — exactly what a dominance-skipped cell's worker
// becomes — is parked in the shared pool's Serve BEFORE the hard
// cell's search starts, so the cell's very first donation check is
// guaranteed to see a hungry peer. The skipped cell's worker must then
// appear as donations in the hard cell's own Stats.Donations and as
// executed steals in the pool, and the cell must stay exact. This is
// the session counterpart of core's TestDonationFeedsHungryWorker and
// runs under -race via make test-race.
func TestSharedPoolStealHandshakeFromReleasedWorker(t *testing.T) {
	g := starvedSession(3, 72)
	q := Query{K: 1, Delta: 60}
	want := independent(t, g, q, Options{})

	s := New(g, Options{})
	pool := sched.NewPool()
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.Serve() // the released worker of the "skipped cell"
	}()
	for !pool.Hungry() {
		runtime.Gosched()
	}

	res, err := s.find(q, pool)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	<-done

	if res.Size() != want.Size() {
		t.Fatalf("shared-pool cell %d, independent %d", res.Size(), want.Size())
	}
	if res.Size() > 0 && !g.IsFairClique(res.Clique, 1, 60) {
		t.Fatal("invalid clique from shared-pool cell")
	}
	// The hard cell saw the parked executor and donated; every donation
	// was executed by some pool executor before the cell returned.
	if res.Stats.Donations == 0 {
		t.Fatal("hard cell never donated despite a parked released worker")
	}
	ps := pool.Stats()
	if ps.Steals == 0 {
		t.Fatal("donated subtrees were never executed as steals")
	}
	if ps.Releases != 1 {
		t.Fatalf("pool counted %d releases, want 1", ps.Releases)
	}
}

// Cross-cell stealing end to end through FindGrid: a two-cell grid
// whose schedule puts a ~160k-node cell first and a near-instant
// strong cell second, with Workers beyond what either needs — the
// three thief executors can only contribute by stealing the hard
// cell's donated subtrees, and they persist across the cell boundary.
// Exactness, the release count and donation flow through the pool
// (steals == donations, work conservation) are asserted on every
// attempt. Whether a donation is
// executed by a *different* executor is a scheduling question: on one
// CPU the driver may legitimately reclaim its own donations in Drain
// before a runnable thief ever gets the processor, so the cross-cell
// counter is only enforced where it is meaningful — GOMAXPROCS > 1
// (the CI race job's multi-core runner) — with a few fresh attempts
// allowed.
func TestGridSharedPoolCrossCellSteals(t *testing.T) {
	g := starvedSession(5, 150)
	hard := Query{K: 1, Delta: 150} // scheduled first: δ-descending
	cheap := Query{K: 1, Delta: 0}
	wantHard := independent(t, g, hard, Options{})
	wantCheap := independent(t, g, cheap, Options{})
	var fed, crossed bool
	needCross := runtime.GOMAXPROCS(0) > 1
	for attempt := 0; attempt < 5 && !(fed && (!needCross || crossed)); attempt++ {
		s := New(g, Options{Workers: 4})
		rs, err := s.FindGrid([]Query{hard, cheap})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Size() != wantHard.Size() || rs[1].Size() != wantCheap.Size() {
			t.Fatalf("attempt %d: shared-pool grid (%d, %d), independent (%d, %d)",
				attempt, rs[0].Size(), rs[1].Size(), wantHard.Size(), wantCheap.Size())
		}
		if rs[0].Size() > 0 && !g.IsFairClique(rs[0].Clique, int(hard.K), int(hard.Delta)) {
			t.Fatalf("attempt %d: invalid clique from shared pool", attempt)
		}
		st := s.Stats()
		if st.WorkerReleases != 3 {
			t.Fatalf("attempt %d: %d releases, want 3 (Workers-1 thieves Serve once each)",
				attempt, st.WorkerReleases)
		}
		if st.Steals != st.Donations {
			t.Fatalf("attempt %d: %d donations but %d steals; the pool lost or invented work",
				attempt, st.Donations, st.Steals)
		}
		if st.Steals < st.CrossCellSteals {
			t.Fatalf("attempt %d: steals %d < cross-cell steals %d",
				attempt, st.Steals, st.CrossCellSteals)
		}
		if st.Donations > 0 {
			fed = true
		}
		if st.CrossCellSteals > 0 {
			crossed = true
		}
	}
	if !fed {
		t.Fatal("the hard cell never donated to the released executors in 5 attempts")
	}
	if needCross && !crossed {
		t.Fatal("multi-core run: released executors never executed another cell's subtree")
	}
}

// The session-lifetime pool survives Apply: the same Workers-1
// executors serve queries on the pre-delta and post-delta epochs —
// WorkerReleases stays pinned while PoolSearches and the epoch
// advance, and the post-delta answer matches a fresh session built on
// the mutated graph.
func TestPoolSurvivesApply(t *testing.T) {
	g := completeGraph(12, 6)
	s := New(g, Options{Workers: 4})
	defer s.Close()
	q := Query{K: 1, Delta: 0}

	res, err := s.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 12 {
		t.Fatalf("pre-delta optimum %d, want 12", res.Size())
	}
	before := s.Stats()
	if before.WorkerReleases != 3 || before.PoolSearches != 1 {
		t.Fatalf("pre-delta releases/searches = %d/%d, want 3/1",
			before.WorkerReleases, before.PoolSearches)
	}

	if _, err := s.Apply(&graph.Delta{DelEdges: [][2]int32{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	want := independent(t, s.Graph(), q, Options{})
	if res.Size() != want.Size() {
		t.Fatalf("post-delta session %d, fresh %d", res.Size(), want.Size())
	}
	st := s.Stats()
	if st.WorkerReleases != 3 {
		t.Fatalf("Apply changed WorkerReleases to %d; the pool must survive the epoch swap", st.WorkerReleases)
	}
	if st.PoolSearches != before.PoolSearches+1 {
		t.Fatalf("post-delta Find did not draw on the shared pool: %d searches", st.PoolSearches)
	}
	if st.Epoch == before.Epoch {
		t.Fatal("Apply did not advance the epoch")
	}
}

// Single-cell Find draws on the session pool: released executors steal
// the lone cell's donated subtrees. The executors are parked before
// the query starts, so the search's first donation check
// deterministically sees a hungry peer; every donation must be matched
// by an executed steal, and repeats of the solved cell are dominance
// skips costing a tiny constant of allocations.
func TestFindDrawsOnSessionPool(t *testing.T) {
	g := starvedSession(3, 72)
	q := Query{K: 1, Delta: 60}
	want := independent(t, g, q, Options{})

	s := New(g, Options{Workers: 4})
	defer s.Close()
	waitParked(s.sharedPool(), 3)

	res, err := s.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != want.Size() {
		t.Fatalf("pooled Find %d, independent %d", res.Size(), want.Size())
	}
	st := s.Stats()
	if st.PoolSearches != 1 || st.WorkerReleases != 3 {
		t.Fatalf("searches/releases = %d/%d, want 1/3", st.PoolSearches, st.WorkerReleases)
	}
	if st.Donations == 0 {
		t.Fatal("Find never donated despite three parked executors")
	}
	if st.Steals != st.Donations {
		t.Fatalf("%d donations but %d steals; the pool lost or invented work", st.Donations, st.Steals)
	}

	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Find(q); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 16 {
		t.Fatalf("pooled dominance-skip repeat allocates %.1f objects; want a tiny constant", avg)
	}
}

// The shared-pool grid differential wall: FindGrid at Workers 4 on the
// session pool must answer every cell exactly like an independent
// serial run, across all six Table II bound configurations and all
// three fairness modes (strong δ = 0, relative δ > 0, weak). Runs
// under -race via make test-race.
func TestGridSharedPoolDifferential(t *testing.T) {
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
			s := New(g, opt)
			rs, err := s.FindGrid(qs)
			st := s.Stats()
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.PoolSearches == 0 {
				t.Fatalf("seed=%d extra=%v: the grid never ran on the shared pool", seed, extra)
			}
			for i, q := range qs {
				iq := q
				if iq.Weak {
					iq.Weak, iq.Delta = false, g.N() // weak = unconstrained balance
				}
				want := independent(t, g, iq, Options{UseBounds: true, Extra: extra, UseHeuristic: true})
				if rs[i].Size() != want.Size() {
					t.Fatalf("seed=%d extra=%v (k=%d, δ=%d, weak=%v): shared pool %d, independent %d",
						seed, extra, q.K, q.Delta, q.Weak, rs[i].Size(), want.Size())
				}
				if rs[i].Size() > 0 && !g.IsFairClique(rs[i].Clique, int(iq.K), int(iq.Delta)) {
					t.Fatalf("seed=%d extra=%v (k=%d, δ=%d, weak=%v): invalid clique from the shared pool",
						seed, extra, q.K, q.Delta, q.Weak)
				}
			}
		}
	}
}

// ringWithCore is one component of n > smallComponentLimit vertices: a
// ring with alternating attributes plus a random dense core on its
// first 30 vertices. Searched without reduction, it takes the private
// root split when Workers > 1 and no pool is available.
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

// A closed session answers every query on the private split with its
// full Workers budget: a Workers: 4 session closed before its first
// query must answer Find, FindGrid and Enumerate exactly like an
// independent serial run, never touch the shared pool, and leave no
// goroutine running after any call. The one-shot public Find relies
// on this contract.
func TestClosedSessionRunsPrivateSplit(t *testing.T) {
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
			t.Fatalf("%s (k=%d, δ=%d): closed session %d, independent %d", call, q.K, q.Delta, got.Size(), want.Size())
		}
		if got.Size() > 0 && !g.IsFairClique(got.Clique, int(q.K), int(q.Delta)) {
			t.Fatalf("%s (k=%d, δ=%d): invalid clique", call, q.K, q.Delta)
		}
	}

	par := opt
	par.Workers = 4
	s := New(g, par)
	s.Close()

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
		t.Fatalf("Enumerate: closed session %v, independent serial %v", set.Cliques, want.Cliques)
	}
	settled("Enumerate")

	if st := s.Stats(); st.PoolSearches != 0 || st.WorkerReleases != 0 || st.Steals != 0 {
		t.Fatalf("closed session touched the shared pool: %d searches, %d releases, %d steals",
			st.PoolSearches, st.WorkerReleases, st.Steals)
	}
}
