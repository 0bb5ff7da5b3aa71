package core

import (
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/enum"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/reduce"
)

// rowKind names the successor-row representation a prepared component
// took: "flat", "chunked", "slice" (the test-only oracle) or "invalid"
// when both bitset forms are set.
func rowKind(d *compPrep) string {
	switch {
	case !d.bitset():
		return "slice"
	case d.flat != nil && d.succ == nil:
		return "flat"
	case d.flat == nil && d.succ != nil:
		return "chunked"
	}
	return "invalid"
}

// forceChunkedRows makes every component prepared until restore runs
// take chunked successor rows, whatever its size.
func forceChunkedRows() (restore func()) {
	old := flatMaxVertices
	flatMaxVertices = 0
	return func() { flatMaxVertices = old }
}

// searchColdNucleus is the component the search-cold benchmark
// workload branches on: the k=2 PipelineN survivor of the 230-vertex
// bigcomp nucleus inside its 5,120-vertex shell.
func searchColdNucleus() *graph.Graph {
	sub, _ := reduce.PipelineN(gen.BigComponent(1, 230, 0.5, graph.ChunkBits+1024), 2, 1)
	return sub.G
}

// newWarmEngine builds a searcher plus a warmed worker over the single
// component of g, ready for repeated full-tree runs: the first run
// grows every arena and settles the incumbent, so subsequent runs are
// the engine's steady state. The component must take the successor
// rows named by rows (see rowKind).
func newWarmEngine(t testing.TB, g *graph.Graph, opt Options, rows string) (*searcher, *worker) {
	t.Helper()
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: int32(opt.K), delta: int32(opt.Delta), opt: opt}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("test graph has %d components, want 1", got)
	}
	d := s.newCompData(s.p.comps[0])
	if got := rowKind(d.compPrep); got != rows {
		t.Fatalf("component of %d vertices took %s rows, want %s", d.n, got, rows)
	}
	w := newWorker(d)
	w.branchRoot() // warm: grows arenas and fixes the incumbent
	w.flushNodes()
	if s.nodes.Load() == 0 {
		t.Fatal("warm run visited no nodes")
	}
	return s, w
}

// Steady-state branching must allocate zero heap objects per node —
// the acceptance criterion of the allocation-free engine. Checked for
// the plain baseline and the default bounds configuration (whose
// per-node colouring runs on worker scratch rows), on a single-chunk
// component with flat rows and forced onto chunked rows, and on a multi-chunk
// >4096-vertex component (dense, sparse and run containers all in
// play).
func TestBranchSteadyStateZeroAllocs(t *testing.T) {
	small := random(42, 80, 0.4)
	big := gen.BigComponent(42, 36, 0.5, graph.ChunkBits+120)
	bounded := Options{K: 2, Delta: 1, UseBounds: true, Extra: bounds.ColorfulDegeneracy}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opt  Options
		rows string
	}{
		{"plain", small, Options{K: 2, Delta: 1}, "flat"},
		{"bounds", small, bounded, "flat"},
		{"chunked-plain", small, Options{K: 2, Delta: 1}, "chunked"},
		{"chunked-bounds", small, bounded, "chunked"},
		{"multichunk-plain", big, Options{K: 2, Delta: 1}, "chunked"},
		{"multichunk-bounds", big, bounded, "chunked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rows == "chunked" {
				t.Cleanup(forceChunkedRows())
			}
			_, w := newWarmEngine(t, tc.g, tc.opt, tc.rows)
			if tc.name[:4] == "mult" && w.d.words <= graph.ChunkWords {
				t.Fatalf("multichunk fixture spans %d words; want > %d", w.d.words, graph.ChunkWords)
			}
			avg := testing.AllocsPerRun(20, func() {
				w.branchRoot()
			})
			if avg != 0 {
				t.Fatalf("steady-state branching allocates %.2f objects per full-tree run, want 0", avg)
			}
		})
	}
}

// The session re-query path: a second (and every later) full query on a
// warm Prepared must stay at 0 allocs/node. The branching itself is
// allocation-free (asserted above) and the worker arenas come back from
// the compPrep freelist, so a whole re-query allocates only a fixed
// handful of per-query objects (searcher, result, component views,
// incumbent copies) regardless of how many nodes it visits.
func TestBranchSteadyStateZeroAllocsOnRequery(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"plain", random(42, 90, 0.4), Options{K: 2, Delta: 1, SkipReduction: true}},
		{"bounds", random(42, 90, 0.4), Options{K: 2, Delta: 1, SkipReduction: true,
			UseBounds: true, Extra: bounds.ColorfulDegeneracy}},
		{"multichunk", gen.BigComponent(42, 36, 0.5, graph.ChunkBits+120),
			Options{K: 2, Delta: 1, SkipReduction: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prepare(tc.g)
			warm, err := p.Search(tc.opt, nil) // builds compPreps and worker arenas
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats.Nodes < 500 {
				t.Fatalf("fixture too small to amortize per-query overhead: %d nodes", warm.Stats.Nodes)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := p.Search(tc.opt, nil); err != nil {
					t.Fatal(err)
				}
			})
			// The per-query constant must not scale with the tree: a few
			// dozen objects over hundreds-to-millions of nodes rounds to
			// 0 allocs/node.
			if avg > 64 {
				t.Fatalf("re-query allocates %.1f objects; want a node-count-independent constant <= 64", avg)
			}
			if perNode := avg / float64(warm.Stats.Nodes); perNode > 0.02 {
				t.Fatalf("re-query allocates %.4f objects/node over %d nodes; want 0 (<= 0.02)",
					perNode, warm.Stats.Nodes)
			}
		})
	}
}

// BenchmarkBranchAllocs drives the branching engine over a fixed
// component and reports allocations (want 0 allocs/op in steady state)
// plus the node throughput.
func BenchmarkBranchAllocs(b *testing.B) {
	g := random(42, 120, 0.3)
	s, w := newWarmEngine(b, g, Options{K: 2, Delta: 1}, "flat")
	start := s.nodes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.branchRoot()
	}
	w.flushNodes()
	b.StopTimer()
	nodes := s.nodes.Load() - start
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
}

// BenchmarkBranchSearchCold times one full search of the branch loop,
// with the search-cold workload's per-node bound (ubAD at every node;
// the component-root check sits outside the loop, in searchComponent),
// on the search-cold nucleus with flat
// rows and forced onto chunked rows: the two sides of the flat-row
// cutoff on one tree (go test -bench BranchSearchCold). Compare ns/op,
// the time per search: the per-node bound makes each node dearer and
// the tree smaller, so nodes/sec alone no longer tracks the loop's
// speed; nodes/search reports the tree size. BenchmarkBigComponentPaths
// keeps the multi-chunk number.
func BenchmarkBranchSearchCold(b *testing.B) {
	g := searchColdNucleus()
	opt := Options{K: 2, Delta: 2, UseBounds: true, Extra: bounds.ColorfulDegeneracy}
	for _, rows := range []string{"flat", "chunked"} {
		b.Run(rows, func(b *testing.B) {
			if rows == "chunked" {
				b.Cleanup(forceChunkedRows())
			}
			s, w := newWarmEngine(b, g, opt, rows)
			start := s.nodes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.branchRoot()
			}
			w.flushNodes()
			b.StopTimer()
			nodes := float64(s.nodes.Load() - start)
			b.ReportMetric(nodes/b.Elapsed().Seconds(), "nodes/sec")
			b.ReportMetric(nodes/float64(b.N), "nodes/search")
		})
	}
}

// nodeBoundSink keeps BenchmarkNodeBound's measured call alive.
var nodeBoundSink int32

// BenchmarkNodeBound times the per-node bound alone (worker.nodeBound:
// the attribute bound plus the greedy colouring of C) on the largest
// depth-1 candidate row of the search-cold nucleus, on flat rows, and
// of the multi-chunk bigComponentInstance, on chunked rows.
func BenchmarkNodeBound(b *testing.B) {
	for _, tc := range []struct {
		name, rows string
		g          *graph.Graph
	}{
		{"searchcold-flat", "flat", searchColdNucleus()},
		{"multichunk-chunked", "chunked", bigComponentInstance(11)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opt := Options{K: 2, Delta: 2, UseBounds: true, Extra: bounds.ColorfulDegeneracy}
			s, w := newWarmEngine(b, tc.g, opt, tc.rows)
			s.bestSize.Store(0) // an empty incumbent: the colouring always runs
			d := w.d
			w.ensureBits(1)
			var best [2]int32
			var cnt [2]int32
			for u := int32(0); u < d.n; u++ {
				if avail := w.makeChildBits(w.cand[1], d.fullRow, u, false); avail[0]+avail[1] > best[0]+best[1] {
					best, cnt = avail, [2]int32{}
					cnt[d.comp.Attr(u)] = 1
					w.rbuf[0] = u
				}
			}
			w.makeChildBits(w.cand[1], d.fullRow, w.rbuf[0], false)
			if ub := bounds.Combine(cnt[0]+best[0], cnt[1]+best[1], s.delta); ub < 2*s.k {
				b.Fatalf("the attribute bound %d alone prunes the row", ub)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodeBoundSink = w.nodeBound(cnt, best, w.cand[1])
			}
			b.ReportMetric(float64(best[0]+best[1]), "candidates")
		})
	}
}

// The slice oracle path must agree with the Bron–Kerbosch oracle, so
// it stays trustworthy as the differential-test reference for the
// chunked engine.
func TestSlicePathMatchesOracle(t *testing.T) {
	old := useSliceOracle
	useSliceOracle = true
	defer func() { useSliceOracle = old }()

	for seed := uint64(0); seed < 8; seed++ {
		g := random(seed, 32, 0.35)
		for _, kd := range [][2]int{{1, 0}, {2, 1}, {3, 2}} {
			k, delta := kd[0], kd[1]
			want := len(enum.MaxFairClique(g, k, delta))
			for _, workers := range []int{1, 4} {
				res := mustMaxRFC(t, g, Options{
					K: k, Delta: delta, Workers: workers,
					UseBounds: true, Extra: bounds.ColorfulDegeneracy,
				})
				if res.Size() != want {
					t.Fatalf("seed=%d k=%d δ=%d workers=%d: slice path %d, oracle %d",
						seed, k, delta, workers, res.Size(), want)
				}
				if want > 0 && !g.IsFairClique(res.Clique, k, delta) {
					t.Fatalf("seed=%d: invalid clique from slice path", seed)
				}
			}
		}
	}
}

// Intra-component parallelism: dense random graphs are one giant
// connected component, so Workers > 1 exercises the root-split path.
// Workers ∈ {1, 4} must agree on the optimum size with consistent
// stats.
func TestIntraComponentWorkersMatchSerial(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		n := 40 + int(seed%3)*15
		g := random(seed, n, 0.3)
		k := 1 + int(seed%3)
		delta := int(seed % 4)
		serial := mustMaxRFC(t, g, Options{K: k, Delta: delta})
		par := mustMaxRFC(t, g, Options{K: k, Delta: delta, Workers: 4})
		if serial.Size() != par.Size() {
			t.Fatalf("seed=%d n=%d k=%d δ=%d: serial %d, workers=4 %d",
				seed, n, k, delta, serial.Size(), par.Size())
		}
		if par.Size() > 0 {
			if !g.IsFairClique(par.Clique, k, delta) {
				t.Fatalf("seed=%d: parallel result invalid", seed)
			}
			if par.Stats.Nodes == 0 {
				t.Fatalf("seed=%d: parallel run with a clique but no nodes", seed)
			}
		}
		if par.Stats.Aborted || serial.Stats.Aborted {
			t.Fatalf("seed=%d: unexpected abort without MaxNodes", seed)
		}
	}
}

// Many small components with Workers > 1 exercise the component
// fan-out (with at least Workers components left, components of at
// most smallComponentLimit vertices are distributed one per goroutine
// rather than root-split).
func TestSmallComponentPoolMatchesSerial(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := multiComponent(seed, 5)
		serial := mustMaxRFC(t, g, Options{K: 2, Delta: 1})
		pooled := mustMaxRFC(t, g, Options{K: 2, Delta: 1, Workers: 4})
		if serial.Size() != pooled.Size() {
			t.Fatalf("seed=%d: serial %d, pooled %d", seed, serial.Size(), pooled.Size())
		}
		if pooled.Size() > 0 && !g.IsFairClique(pooled.Clique, 2, 1) {
			t.Fatalf("seed=%d: pooled result invalid", seed)
		}
	}
}

// The relabeled component must preserve exactness under every variant
// (cross-check of the peel-rank relabeling against the oracle).
func TestRelabeledComponentExactness(t *testing.T) {
	for seed := uint64(20); seed < 26; seed++ {
		g := random(seed, 28, 0.45)
		want := len(enum.MaxFairClique(g, 2, 1))
		for _, opt := range allVariants(2, 1) {
			res := mustMaxRFC(t, g, opt)
			if res.Size() != want {
				t.Fatalf("seed=%d %+v: got %d want %d", seed, opt, res.Size(), want)
			}
		}
	}
}
