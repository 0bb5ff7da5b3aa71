package core

import (
	"slices"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/reduce"
	"fairclique/internal/rng"
)

// runWithSliceOracle runs MaxRFC with the legacy binary-search slice
// path forced, which is the independent reference implementation the
// bitset engine is differentially tested against.
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

// runForced runs MaxRFC with a row-form hook (forcePerRootRows or
// forceListNodes) in force.
func runForced(t *testing.T, g *graph.Graph, opt Options, force func() func()) *Result {
	t.Helper()
	defer force()()
	return mustMaxRFC(t, g, opt)
}

// Differential fuzz: random attributed graphs from the generator suite
// run through the bitset engine in three regimes — the default rows
// (a flat table where a component qualifies), per-root rows forced on
// every component, and list nodes everywhere — and the slice oracle
// must agree on the maximum fair clique size, with valid cliques,
// across all six Table II bound configurations. The three regimes must
// also walk the identical search tree: serial runs are deterministic,
// so their node, bound-check and bound-prune counts must be equal, and
// in collect mode they must return the same set of optima.
func TestDifferentialChunkedVsSliceOracle(t *testing.T) {
	regimes := []struct {
		name  string
		force func() func()
	}{{"per-root", forcePerRootRows}, {"lists", forceListNodes}}
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
				all := opt
				all.CollectAll, all.StopAtSize = true, got.Size()
				var optima [][]int32
				if got.Size() > 0 {
					optima = mustMaxRFC(t, inst.g, all).Cliques
				}
				for _, r := range regimes {
					forced := runForced(t, inst.g, opt, r.force)
					if forced.Size() != got.Size() {
						t.Fatalf("%s k=%d δ=%d extra=%v: %s %d, default rows %d",
							inst.name, k, delta, opt.Extra, r.name, forced.Size(), got.Size())
					}
					if c, f := forced.Stats, got.Stats; c.Nodes != f.Nodes ||
						c.BoundChecks != f.BoundChecks || c.BoundPrunes != f.BoundPrunes {
						t.Fatalf("%s k=%d δ=%d extra=%v: %s tree (nodes %d, checks %d, prunes %d) != default tree (%d, %d, %d)",
							inst.name, k, delta, opt.Extra, r.name, c.Nodes, c.BoundChecks, c.BoundPrunes,
							f.Nodes, f.BoundChecks, f.BoundPrunes)
					}
					if got.Size() == 0 {
						continue
					}
					if forcedAll := runForced(t, inst.g, all, r.force); !slices.EqualFunc(forcedAll.Cliques, optima, slices.Equal[[]int32]) {
						t.Fatalf("%s k=%d δ=%d extra=%v: %s collects %d optima, default rows %d",
							inst.name, k, delta, opt.Extra, r.name, len(forcedAll.Cliques), len(optima))
					}
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

// The differential fuzz above compares a flat table with per-root rows
// and list nodes only if its instances' reduced components take flat
// rows by default: at least half of the (instance, k) reductions must
// contain one.
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

// bigComponentInstance is a fixture past the flat-row rule: one
// connected component comfortably past graph.ChunkBits vertices, small
// enough to search exhaustively in a test.
func bigComponentInstance(seed uint64) *graph.Graph {
	return gen.BigComponent(seed, 48, 0.55, graph.ChunkBits+160)
}

// A >4096-vertex component gets no flat table: its root is a list node
// and each root branch builds per-root rows, and the search must match
// the slice oracle exactly, with and without bounds.
func TestBigComponentUsesPerRootRows(t *testing.T) {
	g := bigComponentInstance(11)
	if g.N() <= graph.ChunkBits {
		t.Fatalf("fixture has %d vertices; want > %d", g.N(), graph.ChunkBits)
	}
	comps := graph.ConnectedComponents(g)
	if len(comps) != 1 {
		t.Fatalf("fixture has %d components, want 1", len(comps))
	}
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: 2, delta: 1, opt: Options{K: 2, Delta: 1}}
	d := s.newCompData(comps[0])
	if got := rowKind(d.compPrep); got != "per-root" {
		t.Fatalf("component of %d vertices took %s rows, want per-root", d.n, got)
	}
	checkRootTables(t, newWorker(d))

	// End to end: per-root result == slice-oracle result, on the exact
	// same >4096-vertex component (SkipReduction keeps it intact).
	for _, kd := range [][2]int{{1, 1}, {2, 1}} {
		k, delta := kd[0], kd[1]
		opt := Options{K: k, Delta: delta, SkipReduction: true}
		perRoot := mustMaxRFC(t, g, opt)
		oracle := runWithSliceOracle(t, g, opt)
		if perRoot.Size() != oracle.Size() {
			t.Fatalf("k=%d δ=%d: per-root %d, slice oracle %d", k, delta, perRoot.Size(), oracle.Size())
		}
		if perRoot.Size() > 0 && !g.IsFairClique(perRoot.Clique, k, delta) {
			t.Fatalf("k=%d δ=%d: per-root result invalid", k, delta)
		}
		// With bounds enabled the big component must still agree.
		opt.UseBounds, opt.Extra = true, bounds.ColorfulDegeneracy
		withBounds := mustMaxRFC(t, g, opt)
		if withBounds.Size() != oracle.Size() {
			t.Fatalf("k=%d δ=%d with bounds: per-root %d, slice oracle %d",
				k, delta, withBounds.Size(), oracle.Size())
		}
	}
}

// A hub with more successors than graph.ChunkBits: gen.HubFan(2100)
// gives the hub 4,200 b-neighbours, so its root branch is a list node
// whatever its peel rank. At K 1 and 2, with and without the
// reduction, the search must match the slice oracle, and no worker's
// table may grow past ChunkBits rows.
func TestHubRootBranchIsListNode(t *testing.T) {
	g := gen.HubFan(2100)
	for _, k := range []int{1, 2} {
		opt := Options{K: k, Delta: 1, UseBounds: true, Extra: bounds.ColorfulDegeneracy}
		want := runWithSliceOracle(t, g, Options{K: k, Delta: 1, SkipReduction: true}).Size()
		if want != 4 {
			t.Fatalf("k=%d: slice oracle %d, want the hub's K4s", k, want)
		}
		for _, skip := range []bool{true, false} {
			work, toOrig := g, identity(g.N())
			if !skip {
				sub, _ := reduce.PipelineN(g, int32(k), 1)
				work, toOrig = sub.G, sub.ToParent
			}
			p := PrepareReduced(work, toOrig)
			if p.Components() != 1 {
				t.Fatalf("k=%d skip=%v: %d components, want 1", k, skip, p.Components())
			}
			d := p.comp(0)
			if got := rowKind(d); got != "per-root" {
				t.Fatalf("k=%d skip=%v: %s rows, want per-root", k, skip, got)
			}
			hub := int32(0)
			for v := range d.n {
				if d.comp.Deg(v) > d.comp.Deg(hub) {
					hub = v
				}
			}
			s := &searcher{p: p, k: int32(k), delta: 1, opt: opt}
			w := newWorker(&compData{compPrep: d, s: s})
			w.runRootBranch(hub)
			if got := len(w.cs[1]); got <= graph.ChunkBits {
				t.Fatalf("k=%d skip=%v: the hub's root branch has %d candidates; want > %d", k, skip, got, graph.ChunkBits)
			}
			res, err := p.Search(opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Size() != want || !g.IsFairClique(res.Clique, k, 1) {
				t.Fatalf("k=%d skip=%v: clique %v, slice oracle size %d", k, skip, res.Clique, want)
			}
			for _, w := range append(d.free, w) {
				if rows := cap(w.own.ids); rows > graph.ChunkBits {
					t.Fatalf("k=%d skip=%v: a worker's table grew to %d rows", k, skip, rows)
				}
			}
		}
	}
}

// checkRootTables checks the rows a table-less component's root
// branches build: for every root u, the child list is succ(u), and the
// table over it holds, in row i, succ(ids[i]) restricted to the list,
// as table indices.
func checkRootTables(t *testing.T, w *worker) {
	t.Helper()
	d := w.d
	all := identity(d.n)
	for u := int32(0); u < d.n; u++ {
		child, avail := w.childList(1, all, u, false)
		want := succList(d.comp, all, u, false)
		if !slices.Equal(child, want) {
			t.Fatalf("root branch %d: child list %v, want %v", u, child, want)
		}
		if int(avail[0]+avail[1]) != len(want) {
			t.Fatalf("root branch %d: counts %v for %d candidates", u, avail, len(want))
		}
		if int32(len(child)) > tableMaxVertices {
			continue
		}
		w.own.fill(d.comp, child)
		for i := range child {
			got := rowIDs(&w.own, w.own.row(int32(i)))
			if want := succList(d.comp, child, child[i], false); !slices.Equal(got, want) {
				t.Fatalf("root branch %d, table row of %d: %v, want %v", u, child[i], got, want)
			}
		}
	}
}

// alternatingCycle is a cycle on n vertices whose attributes alternate:
// one connected component with m = n edges, sparser than the n·⌈n/64⌉
// words flat rows would need once n > 64.
func alternatingCycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(v%2))
		b.AddEdge(int32(v), int32((v+1)%n))
	}
	return b.Build()
}

// Which rows each fixture takes: the search-cold nucleus (dense, ≤ 4096
// vertices) takes one flat table unless per-root rows are forced; a
// >4096-vertex component and a sparse cycle take per-root rows. Either
// way the rows hold the successor bits of the adjacency lists.
func TestRowRepresentationSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		forced bool
		want   string
	}{
		{"searchcold-nucleus", searchColdNucleus(), false, "flat"},
		{"searchcold-nucleus-forced", searchColdNucleus(), true, "per-root"},
		{"big-component", bigComponentInstance(11), false, "per-root"},
		{"alternating-cycle", alternatingCycle(1000), false, "per-root"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.forced {
				t.Cleanup(forcePerRootRows())
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
			w := newWorker(&compData{compPrep: d, s: &searcher{}})
			if d.rows == nil {
				checkRootTables(t, w)
				return
			}
			// Decode every successor row through the child kernel (a full
			// source row, no declaration) and compare it with the
			// adjacency-list definition of succ.
			w.ensureBits(1)
			all := identity(d.n)
			for u := int32(0); u < d.n; u++ {
				avail := w.makeChildBits(w.cand[1], w.cand[0], u, false)
				want := succList(d.comp, all, u, false)
				if got := rowIDs(w.t, w.cand[1]); !slices.Equal(got, want) {
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
// yields only three tasks: with eight workers, the split starts three
// and the other five never run. The b-side subtrees are deep, so each
// root branch is a large tree of its own.
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

// searchSingleComponent drives searchComponent directly, so a fixture
// takes the root split at any workers > 1 without going through
// Search's component rule. The returned searcher's best
// clique is in g's own vertex ids.
func searchSingleComponent(t *testing.T, g *graph.Graph, opt Options, workers int) *searcher {
	t.Helper()
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: int32(opt.K), delta: int32(opt.Delta), opt: opt}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	s.searchComponent(0, workers)
	return s
}

// A root split with more workers than root branches (three attribute-a
// vertices, eight workers) must stay exact. Run with -race via make
// test-race.
func TestWorkStealingStarvedRootSplit(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := starvedGraph(seed, 48)
		opt := Options{K: 1, Delta: 46}
		serial := searchSingleComponent(t, g, opt, 1)
		par := searchSingleComponent(t, g, opt, 8)
		if len(serial.best) != len(par.best) {
			t.Fatalf("seed=%d: serial %d, split %d", seed, len(serial.best), len(par.best))
		}
		if len(par.best) > 0 && !g.IsFairClique(par.best, 1, 46) {
			t.Fatalf("seed=%d: split result invalid", seed)
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

// BenchmarkBigComponentPaths measures the per-root engine against the
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
		{"per-root", false},
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

// The split must also cooperate with the abort valve: its workers stop
// promptly and never corrupt the incumbent.
func TestWorkStealingWithAbort(t *testing.T) {
	g := starvedGraph(3, 52)
	s := searchSingleComponent(t, g, Options{K: 1, Delta: 50, MaxNodes: 500}, 8)
	if !s.aborted.Load() {
		t.Skip("search finished before the cap; nothing to verify")
	}
	if s.best != nil && !g.IsFairClique(s.best, 1, 50) {
		t.Fatal("aborted split run produced an invalid clique")
	}
}
