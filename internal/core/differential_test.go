package core

import (
	"runtime"
	"slices"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/reduce"
	"fairclique/internal/rng"
	"fairclique/internal/sched"
)

// runWithSliceOracle runs MaxRFC with the legacy binary-search slice
// path forced, which is the independent reference implementation the
// chunked engine is differentially tested against.
func runWithSliceOracle(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	old := useSliceOracle
	useSliceOracle = true
	defer func() { useSliceOracle = old }()
	return mustMaxRFC(t, g, opt)
}

// sixBoundConfigs is the Table II sweep: the plain advanced group plus
// each extra bound (None, Degeneracy, HIndex, ColorfulDegeneracy,
// ColorfulHIndex, ColorfulPath).
func sixBoundConfigs(k, delta int) []Options {
	extras := bounds.Extras()
	if len(extras) != 6 {
		panic("Table II sweep expects exactly six bound configurations")
	}
	out := make([]Options, 0, len(extras))
	for _, extra := range extras {
		out = append(out, Options{K: k, Delta: delta, UseBounds: true, Extra: extra})
	}
	return out
}

// runWithChunkedRows runs MaxRFC with chunked successor rows forced on
// every component, including those that would take flat rows.
func runWithChunkedRows(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	defer forceChunkedRows()()
	return mustMaxRFC(t, g, opt)
}

// Differential fuzz: random attributed graphs from the generator suite
// run through the bitset engine — with flat successor rows where a
// component qualifies and with chunked rows forced everywhere — and the
// slice oracle must agree on the maximum fair clique size, and produce
// valid cliques, across all six Table II bound configurations. The two
// row representations must also walk the identical search tree: serial
// runs are deterministic, so their node, bound-check and bound-prune
// counts must be equal.
func TestDifferentialChunkedVsSliceOracle(t *testing.T) {
	for _, inst := range differentialInstances() {
		for _, kd := range [][2]int{{1, 1}, {2, 1}, {2, 3}} {
			k, delta := kd[0], kd[1]
			want := runWithSliceOracle(t, inst.g, Options{K: k, Delta: delta})
			for _, opt := range sixBoundConfigs(k, delta) {
				got := mustMaxRFC(t, inst.g, opt)
				if got.Size() != want.Size() {
					t.Fatalf("%s n=%d k=%d δ=%d extra=%v: bitset %d, slice oracle %d",
						inst.name, inst.g.N(), k, delta, opt.Extra, got.Size(), want.Size())
				}
				if got.Size() > 0 && !inst.g.IsFairClique(got.Clique, k, delta) {
					t.Fatalf("%s k=%d δ=%d extra=%v: bitset result not a fair clique",
						inst.name, k, delta, opt.Extra)
				}
				chunked := runWithChunkedRows(t, inst.g, opt)
				if chunked.Size() != got.Size() {
					t.Fatalf("%s k=%d δ=%d extra=%v: forced-chunked %d, default rows %d",
						inst.name, k, delta, opt.Extra, chunked.Size(), got.Size())
				}
				if c, f := chunked.Stats, got.Stats; c.Nodes != f.Nodes ||
					c.BoundChecks != f.BoundChecks || c.BoundPrunes != f.BoundPrunes {
					t.Fatalf("%s k=%d δ=%d extra=%v: forced-chunked tree (nodes %d, checks %d, prunes %d) != default tree (%d, %d, %d)",
						inst.name, k, delta, opt.Extra, c.Nodes, c.BoundChecks, c.BoundPrunes,
						f.Nodes, f.BoundChecks, f.BoundPrunes)
				}
				// The oracle too must hand back a valid clique under the
				// same bound configuration.
				oracle := runWithSliceOracle(t, inst.g, opt)
				if oracle.Size() != want.Size() {
					t.Fatalf("%s k=%d δ=%d extra=%v: slice oracle inconsistent with itself: %d vs %d",
						inst.name, k, delta, opt.Extra, oracle.Size(), want.Size())
				}
			}
		}
	}
}

// The differential fuzz above compares flat with chunked rows only if
// its instances' reduced components take flat rows by default: at
// least half of the (instance, k) reductions must contain one.
func TestDifferentialInstancesTakeFlatRows(t *testing.T) {
	flat, total := 0, 0
	for _, inst := range differentialInstances() {
		for _, k := range []int32{1, 2} {
			sub, _ := reduce.PipelineN(inst.g, k, 1)
			p := PrepareReduced(sub.G, sub.ToParent)
			total++
			for ci := range p.comps {
				if rowKind(p.comp(ci)) == "flat" {
					flat++
					break
				}
			}
		}
	}
	t.Logf("%d of %d reduced fixtures contain a flat-row component", flat, total)
	if 2*flat < total {
		t.Fatalf("only %d of %d reduced fixtures contain a flat-row component", flat, total)
	}
}

type instance struct {
	name string
	g    *graph.Graph
}

// differentialInstances is the fixture set of the differential fuzz:
// six seeds of ER, BA, WS and planted-clique graphs of 30-59 vertices.
func differentialInstances() []instance {
	r := rng.New(20260729)
	var instances []instance
	for seed := uint64(0); seed < 6; seed++ {
		n := 30 + int(r.Intn(30))
		instances = append(instances,
			instance{"er", gen.AssignUniform(seed+100, gen.ErdosRenyi(seed, n, n*4), 0.5)},
			instance{"ba", gen.AssignUniform(seed+200, gen.BarabasiAlbert(seed, n, 5), 0.4)},
			instance{"ws", gen.AssignUniform(seed+300, gen.WattsStrogatz(seed, n, 4, 0.2), 0.6)},
		)
		planted, _ := gen.PlantFairClique(seed+400, gen.ErdosRenyi(seed, n, n*2), 4, 4)
		instances = append(instances, instance{"planted", planted})
	}
	return instances
}

// bigComponentInstance is the force-the-cap fixture: one connected
// component comfortably past the 4096-vertex chunk boundary, small
// enough to search exhaustively in a test.
func bigComponentInstance(seed uint64) *graph.Graph {
	return gen.BigComponent(seed, 48, 0.55, graph.ChunkBits+160)
}

// Before the chunked rows landed, a >4096-vertex component silently
// fell back to the slice path. It must now build the chunked successor
// matrix — multi-chunk rows included — and match the slice oracle
// exactly. This is the test-level verification required by the
// acceptance criteria (not a benchmark-only claim).
func TestBigComponentUsesChunkedPath(t *testing.T) {
	g := bigComponentInstance(11)
	if g.N() <= graph.ChunkBits {
		t.Fatalf("fixture has %d vertices; want > %d", g.N(), graph.ChunkBits)
	}
	comps := graph.ConnectedComponents(g)
	if len(comps) != 1 {
		t.Fatalf("fixture has %d components, want 1", len(comps))
	}

	// White-box: the component must be routed to the chunked
	// representation, never flat rows or the slice fallback.
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: 2, delta: 1, opt: Options{K: 2, Delta: 1}}
	d := s.newCompData(comps[0])
	if got := rowKind(d.compPrep); got != "chunked" {
		t.Fatalf("component of %d vertices took %s rows, want chunked", d.n, got)
	}
	if d.words <= graph.ChunkWords {
		t.Fatalf("candidate rows span %d words; want > one chunk (%d)", d.words, graph.ChunkWords)
	}
	multiChunkRows := 0
	for v := int32(0); v < d.n; v++ {
		if d.succ.RowBytes(v) > 0 && d.comp.Deg(v) > 2 {
			multiChunkRows++
		}
	}
	if multiChunkRows == 0 {
		t.Fatal("no non-trivial successor rows built")
	}

	// End to end: chunked result == slice-oracle result, on the exact
	// same >4096-vertex component (SkipReduction keeps it intact).
	for _, kd := range [][2]int{{1, 1}, {2, 1}} {
		k, delta := kd[0], kd[1]
		opt := Options{K: k, Delta: delta, SkipReduction: true}
		chunked := mustMaxRFC(t, g, opt)
		oracle := runWithSliceOracle(t, g, opt)
		if chunked.Size() != oracle.Size() {
			t.Fatalf("k=%d δ=%d: chunked %d, slice oracle %d", k, delta, chunked.Size(), oracle.Size())
		}
		if chunked.Size() > 0 && !g.IsFairClique(chunked.Clique, k, delta) {
			t.Fatalf("k=%d δ=%d: chunked result invalid", k, delta)
		}
		// With bounds enabled the big component must still agree.
		opt.UseBounds, opt.Extra = true, bounds.ColorfulDegeneracy
		withBounds := mustMaxRFC(t, g, opt)
		if withBounds.Size() != oracle.Size() {
			t.Fatalf("k=%d δ=%d with bounds: chunked %d, slice oracle %d",
				k, delta, withBounds.Size(), oracle.Size())
		}
	}
}

// alternatingCycle is a cycle on n vertices whose attributes alternate:
// one connected single-chunk component with m = n edges, sparser than
// the n·⌈n/64⌉ words flat rows would need once n > 64.
func alternatingCycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(v%2))
		b.AddEdge(int32(v), int32((v+1)%n))
	}
	return b.Build()
}

// Which successor rows each fixture takes: the search-cold nucleus
// (dense, one chunk) takes flat rows unless chunked rows are forced; a
// >4096-vertex component and a sparse single-chunk cycle take chunked
// rows. Either way the rows hold the same successor bits.
func TestRowRepresentationSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		forced bool
		want   string
	}{
		{"searchcold-nucleus", searchColdNucleus(), false, "flat"},
		{"searchcold-nucleus-forced", searchColdNucleus(), true, "chunked"},
		{"big-component", bigComponentInstance(11), false, "chunked"},
		{"alternating-cycle", alternatingCycle(1000), false, "chunked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.forced {
				t.Cleanup(forceChunkedRows())
			}
			p := prepare(tc.g)
			if p.Components() != 1 {
				t.Fatalf("fixture has %d components, want 1", p.Components())
			}
			d := p.comp(0)
			if got := rowKind(d); got != tc.want {
				t.Fatalf("component of %d vertices, %d edges took %s rows, want %s",
					d.n, d.comp.M(), got, tc.want)
			}
			// Decode every successor row through the child kernel (a full
			// source row, no declaration) and compare it with the
			// adjacency-list definition of succ.
			w := newWorker(&compData{compPrep: d, s: &searcher{}})
			w.ensureBits(1)
			for u := int32(0); u < d.n; u++ {
				avail := w.makeChildBits(w.cand[1], d.fullRow, u, false)
				var want []int32
				for _, v := range d.comp.Neighbors(u) {
					if d.comp.Attr(v) != d.comp.Attr(u) || v > u {
						want = append(want, v)
					}
				}
				got := w.cand[1].Append(nil)
				if !slices.Equal(got, want) {
					t.Fatalf("row %d = %v, want %v", u, got, want)
				}
				if int(avail[0]+avail[1]) != len(want) {
					t.Fatalf("row %d: counts %v for %d successors", u, avail, len(want))
				}
			}
		})
	}
}

// starvedGraph has exactly three attribute-a vertices, so a root split
// yields only three tasks: with eight workers, five start hungry and
// can only be fed by subtree donation. The b-side subtrees are deep,
// which is precisely the deep-left starvation case the donation path
// exists for.
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

// searchSingleComponent drives searchComponent directly so small
// fixtures exercise the root-split + stealing machinery (MaxRFC routes
// components under smallComponentLimit to the serial pool instead).
// The returned searcher's best clique is in g's own vertex ids.
func searchSingleComponent(t *testing.T, g *graph.Graph, opt Options, workers int) *searcher {
	t.Helper()
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: int32(opt.K), delta: int32(opt.Delta), opt: opt}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	s.searchComponent(0, workers, nil)
	return s
}

// A root split with more workers than root branches (three attribute-a
// vertices, eight workers) must stay exact: the surplus workers start
// hungry and live entirely off donated subtrees. Donation volume
// depends on goroutine scheduling (on a single CPU a worker can finish
// before anyone goes hungry), so occurrence is asserted separately by
// TestDonationFeedsHungryWorker; here we check exactness and that
// serial runs never donate. Run with -race via make test-race.
func TestWorkStealingStarvedRootSplit(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := starvedGraph(seed, 48)
		opt := Options{K: 1, Delta: 46}
		serial := searchSingleComponent(t, g, opt, 1)
		par := searchSingleComponent(t, g, opt, 8)
		if len(serial.best) != len(par.best) {
			t.Fatalf("seed=%d: serial %d, stealing %d", seed, len(serial.best), len(par.best))
		}
		if len(par.best) > 0 && !g.IsFairClique(par.best, 1, 46) {
			t.Fatalf("seed=%d: stolen-subtree result invalid", seed)
		}
		if par.donations.Load() > 0 {
			t.Logf("seed=%d: %d subtrees donated", seed, par.donations.Load())
		}
		if serial.donations.Load() != 0 {
			t.Fatalf("seed=%d: serial run reported %d donations", seed, serial.donations.Load())
		}
	}
}

// Regression for the production root-split path: rootTasks must yield
// the root branch vertices from a FRESH worker (whose collect arena
// starts nil) and from a recycled one. A nil collect buffer would make
// expandBits miss collect mode and silently search the whole component
// serially — exactness tests cannot catch that, only the split itself.
func TestRootSplitCollectsTasks(t *testing.T) {
	g := starvedGraph(2, 48)
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: 1, delta: 46,
		opt: Options{K: 1, Delta: 46}}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	prep := s.p.comp(0)
	d := &compData{compPrep: prep, s: s}
	for _, pass := range []string{"fresh", "recycled"} {
		w := prep.getWorker(d)
		tasks := w.rootTasks()
		// The starved fixture has exactly three attribute-a vertices and
		// the root expands only the a side (diff == 0, cnt[0] < k).
		if len(tasks) != 3 {
			t.Fatalf("%s worker: root split collected %d tasks, want 3", pass, len(tasks))
		}
		for _, u := range tasks {
			if d.comp.Attr(u) != graph.AttrA {
				t.Fatalf("%s worker: collected non-a root branch %d", pass, u)
			}
		}
		if w.collect != nil {
			t.Fatalf("%s worker: collect mode left enabled after the split", pass)
		}
		prep.putWorker(w)
	}
}

// Deterministic donation: a released executor is parked in Serve
// before the driver branches, so the driver's first expansion is
// guaranteed to see a hungry peer and ship a subtree through the
// shared pool. This pins the donate / Serve / runStolen handshake
// independent of scheduler timing — it is the same handoff a
// dominance-skipped grid cell's freed executor performs against a
// still-running cell — and doubles as the steal-path race test under
// -race (two goroutines, shared incumbent, donated buffers crossing
// between them).
func TestDonationFeedsHungryWorker(t *testing.T) {
	g := starvedGraph(1, 60)
	opt := Options{K: 1, Delta: 56}
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: 1, delta: 56, opt: opt}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	d := s.newCompData(s.p.comps[0])
	pool := sched.NewPool()
	scope := pool.NewScope()
	d.steal = scope

	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.Serve()
	}()
	// Park the thief in Serve before branching anything: the driver's
	// first donation check is then guaranteed to see it.
	for !pool.Hungry() {
		runtime.Gosched()
	}

	scope.Enter()
	driver := newWorker(d)
	driver.branchRoot()
	driver.flushNodes()
	// Let the thief drain every queued task before the driver enters
	// Drain, so the cross-goroutine handoff is what gets tested
	// (otherwise the driver could just reclaim its own donations).
	for pool.Pending() > 0 {
		runtime.Gosched()
	}
	scope.Exit()
	scope.Drain()
	pool.Close()
	<-done

	if s.donations.Load() == 0 {
		t.Fatal("driver never donated despite a parked hungry thief")
	}
	st := pool.Stats()
	if st.CrossCellSteals == 0 {
		t.Fatal("thief never ran a stolen subtree")
	}
	if st.Releases != 1 {
		t.Fatalf("pool counted %d releases, want 1 (the parked Serve)", st.Releases)
	}
	serial := searchSingleComponent(t, g, Options{K: 1, Delta: 56}, 1)
	if len(s.best) != len(serial.best) {
		t.Fatalf("stolen run found %d, serial %d", len(s.best), len(serial.best))
	}
	if len(s.best) > 0 && !g.IsFairClique(s.best, 1, 56) {
		t.Fatal("stolen run produced an invalid clique")
	}
}

// BenchmarkBigComponentPaths measures the chunked engine against the
// slice oracle on the same >4096-vertex instance BENCH_core.json is
// recorded on, keeping the cap-lift's "at or above the slice-fallback
// baseline" claim measurable: go test -bench BigComponentPaths.
func BenchmarkBigComponentPaths(b *testing.B) {
	g := gen.BigComponentGiant(1)
	opt := Options{K: 2, Delta: 4, SkipReduction: true}
	for _, tc := range []struct {
		name  string
		slice bool
	}{
		{"chunked", false},
		{"slice-oracle", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			old := useSliceOracle
			useSliceOracle = tc.slice
			defer func() { useSliceOracle = old }()
			var nodes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := MaxRFC(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Stats.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
		})
	}
}

// Donation must also cooperate with the abort valve: stolen subtrees
// stop promptly and never corrupt the incumbent.
func TestWorkStealingWithAbort(t *testing.T) {
	g := starvedGraph(3, 52)
	s := searchSingleComponent(t, g, Options{K: 1, Delta: 50, MaxNodes: 500}, 8)
	if !s.aborted.Load() {
		t.Skip("search finished before the cap; nothing to verify")
	}
	if s.best != nil && !g.IsFairClique(s.best, 1, 50) {
		t.Fatal("aborted stealing run produced an invalid clique")
	}
}
