package core

import (
	"slices"
	"testing"

	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

// withoutNodeBound switches the per-node ubAD bound off until restore
// runs.
func withoutNodeBound() (restore func()) {
	old := perNodeBound
	perNodeBound = false
	return func() { perNodeBound = old }
}

// boundWorker prepares the single component of g without reduction and
// returns a worker over it for a bounded (k, δ) search with an empty
// incumbent, on the successor rows named by rows (see rowKind).
func boundWorker(t *testing.T, g *graph.Graph, k, delta int32, rows string) *worker {
	t.Helper()
	if rows == "chunked" {
		defer forceChunkedRows()()
	}
	opt := Options{K: int(k), Delta: int(delta), UseBounds: true}
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: k, delta: delta, opt: opt}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	d := &compData{compPrep: s.p.comp(0), s: s}
	if got := rowKind(d.compPrep); got != rows {
		t.Fatalf("component of %d vertices took %s rows, want %s", d.n, got, rows)
	}
	return newWorker(d)
}

// walkNodes visits the (R, C) nodes below the worker's node at depth in
// depth-first order, at most *budget of them: every candidate u is
// branched on, its child being C ∩ succ(u), restricted to u's attribute
// for a deterministic third of the children (the declare branches).
// R = w.rbuf[:depth] is always a clique adjacent to all of C.
func walkNodes(w *worker, depth int, cnt, avail [2]int32, budget *int, visit func(depth int, cnt, avail [2]int32)) {
	if *budget <= 0 {
		return
	}
	*budget--
	visit(depth, cnt, avail)
	w.ensureBits(depth + 1)
	src := w.cand[depth]
	for _, u := range src.Append(nil) {
		ncnt := cnt
		ncnt[w.d.comp.Attr(u)]++
		w.rbuf[depth] = u
		navail := w.makeChildBits(w.cand[depth+1], src, u, (int(u)+depth)%3 == 0)
		walkNodes(w, depth+1, ncnt, navail, budget, visit)
	}
}

// bruteExtend returns the size of the largest (k, δ)-fair S with
// R ⊆ S ⊆ R ∪ C, where R has attribute counts cnt, is a clique, and is
// adjacent to every vertex of c; 0 when there is none. Exponential:
// tiny instances only.
func bruteExtend(g *graph.Graph, cnt [2]int32, c []int32, k, delta int32) int32 {
	best := int32(0)
	var chosen []int32
	var rec func(i int, cur [2]int32)
	rec = func(i int, cur [2]int32) {
		if cur[0] >= k && cur[1] >= k && abs32(cur[0]-cur[1]) <= delta && cur[0]+cur[1] > best {
			best = cur[0] + cur[1]
		}
		for j := i; j < len(c); j++ {
			v := c[j]
			clique := true
			for _, u := range chosen {
				if !g.HasEdge(u, v) {
					clique = false
					break
				}
			}
			if !clique {
				continue
			}
			next := cur
			next[g.Attr(v)]++
			chosen = append(chosen, v)
			rec(j+1, next)
			chosen = chosen[:len(chosen)-1]
		}
	}
	rec(0, cnt)
	return best
}

// The per-node bound is an upper bound: on random instances of at most
// 18 vertices, at every node of the walk — flat and chunked rows alike
// — it is at least the largest fair clique that contains R and lies in
// R ∪ C.
func TestNodeBoundSound(t *testing.T) {
	r := rng.New(20261017)
	checked := 0
	for trial := 0; trial < 200; trial++ {
		n := 6 + int(r.Intn(13))
		p := 0.3 + 0.5*float64(r.Intn(100))/100
		g := random(uint64(trial)+900, n, p)
		if len(graph.ConnectedComponents(g)) != 1 {
			continue
		}
		k, delta := int32(1+trial%2), int32(trial%3)
		for _, rows := range []string{"flat", "chunked"} {
			if rows == "flat" && !useFlatRows(g.N(), g.M()) {
				continue
			}
			w := boundWorker(t, g, k, delta, rows)
			budget := 1500
			walkNodes(w, 0, [2]int32{}, w.d.cnt, &budget, func(depth int, cnt, avail [2]int32) {
				c := w.cand[depth].Append(nil)
				ub := w.nodeBound(cnt, avail, w.cand[depth])
				if want := bruteExtend(w.d.comp, cnt, c, k, delta); ub < want {
					t.Fatalf("trial %d %s rows k=%d δ=%d: R=%v C=%v: bound %d < largest fair extension %d",
						trial, rows, k, delta, w.rbuf[:depth], c, ub, want)
				}
				checked++
			})
		}
	}
	t.Logf("%d nodes checked", checked)
	if checked < 5000 {
		t.Fatalf("only %d nodes checked", checked)
	}
}

// firstFitSplit colours c greedily in id order from adjacency lists —
// each vertex takes the smallest colour no earlier neighbour in c wears
// — and returns the number of a-only, b-only and mixed classes. col is
// -1 on every vertex on entry and is restored on exit.
func firstFitSplit(g *graph.Graph, c []int32, col []int32) (ca, cb, cm int32) {
	var hasA, hasB []bool
	for _, v := range c {
		var used []bool
		for _, u := range g.Neighbors(v) {
			if x := col[u]; x >= 0 {
				for int(x) >= len(used) {
					used = append(used, false)
				}
				used[x] = true
			}
		}
		x := 0
		for x < len(used) && used[x] {
			x++
		}
		col[v] = int32(x)
		if x == len(hasA) {
			hasA, hasB = append(hasA, false), append(hasB, false)
		}
		if g.Attr(v) == graph.AttrA {
			hasA[x] = true
		} else {
			hasB[x] = true
		}
	}
	for _, v := range c {
		col[v] = -1
	}
	for x := range hasA {
		switch {
		case hasA[x] && hasB[x]:
			cm++
		case hasA[x]:
			ca++
		default:
			cb++
		}
	}
	return ca, cb, cm
}

// The colouring kernels are exact: on random nodes of the search-cold
// nucleus (flat and forced-chunked rows) and of two three-chunk
// components (a dense nucleus in a sparse shell, and a uniform random
// graph whose neighbourhoods span every chunk), the class count and its a-only/b-only/mixed split equal
// first-fit colouring of C in id order built from adjacency lists. The
// candidate row is handed over with its dead chunks poisoned, as stale
// words from earlier nodes would be. On chunked rows the root is also
// checked with random chunks killed, and on the three-chunk components
// every node is, so dead chunks fall before, between and after live
// ones. (Flat rows keep their one chunk live.)
func TestColourClassesMatchFirstFit(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		rows string
	}{
		{"searchcold-flat", searchColdNucleus(), "flat"},
		{"searchcold-chunked", searchColdNucleus(), "chunked"},
		{"multichunk-bigcomp", gen.BigComponent(11, 48, 0.55, 2*graph.ChunkBits+160), "chunked"},
		{"multichunk-er", gen.AssignUniform(12, gen.ErdosRenyi(12, 2*graph.ChunkBits+200, 20*(2*graph.ChunkBits+200)), 0.5), "chunked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := boundWorker(t, tc.g, 2, 1, tc.rows)
			d := w.d
			chunks := graph.ChunkCount(d.n)
			if tc.name[:5] == "multi" && chunks < 3 {
				t.Fatalf("fixture spans %d chunks; want ≥ 3", chunks)
			}
			col := make([]int32, d.n)
			for i := range col {
				col[i] = -1
			}
			r := rng.New(7)
			probe := graph.NewLiveRow(d.n)
			var check func(depth int, kill bool)
			check = func(depth int, kill bool) {
				for i := range probe.Words {
					probe.Words[i] = ^uint64(0)
				}
				w.cand[depth].CopyInto(probe)
				for c := int32(0); kill && c < chunks; c++ {
					if r.Bool(0.4) {
						probe.Live[c>>6] &^= 1 << uint(c&63)
					}
				}
				c := probe.Append(nil)
				wa, wb, wm := firstFitSplit(d.comp, c, col)
				if a, b, m := w.colourClasses(probe); a != wa || b != wb || m != wm {
					t.Fatalf("depth %d, |C|=%d, live chunks %b: classes a/b/mixed %d/%d/%d, first-fit %d/%d/%d",
						depth, len(c), probe.Live[0], a, b, m, wa, wb, wm)
				}
				if !kill && chunks > 1 {
					check(depth, true)
				}
			}
			check(0, false)
			for kill := 0; kill < 20 && tc.rows == "chunked"; kill++ {
				check(0, true)
			}
			for nodes := 0; nodes < 500; {
				for depth := 0; ; depth++ {
					c := w.cand[depth].Append(nil)
					if len(c) == 0 {
						break
					}
					u := c[r.Intn(len(c))]
					w.ensureBits(depth + 1)
					w.makeChildBits(w.cand[depth+1], w.cand[depth], u, r.Bool(0.2))
					check(depth+1, false)
					nodes++
				}
			}
		})
	}
}

// Differential wall for the per-node bound: with it off and on, every
// differential instance under all six Table II configurations gives the
// same optimum size and the same set of optima in collect mode, and the
// tree with the bound never has more nodes. Across the sweep the bound
// must actually prune.
func TestNodeBoundDifferential(t *testing.T) {
	var totalOn, totalOff int64
	for _, inst := range differentialInstances() {
		for _, kd := range [][2]int{{1, 1}, {2, 1}, {2, 3}} {
			for _, opt := range sixBoundConfigs(kd[0], kd[1]) {
				on := mustMaxRFC(t, inst.g, opt)
				restore := withoutNodeBound()
				off := mustMaxRFC(t, inst.g, opt)
				restore()
				if on.Size() != off.Size() {
					t.Fatalf("%s k=%d δ=%d extra=%v: size %d with the node bound, %d without",
						inst.name, kd[0], kd[1], opt.Extra, on.Size(), off.Size())
				}
				if on.Stats.Nodes > off.Stats.Nodes {
					t.Fatalf("%s k=%d δ=%d extra=%v: %d nodes with the node bound, %d without",
						inst.name, kd[0], kd[1], opt.Extra, on.Stats.Nodes, off.Stats.Nodes)
				}
				totalOn += on.Stats.Nodes
				totalOff += off.Stats.Nodes
				if on.Size() == 0 {
					continue
				}
				opt.CollectAll, opt.StopAtSize = true, on.Size()
				allOn := mustMaxRFC(t, inst.g, opt)
				restore = withoutNodeBound()
				allOff := mustMaxRFC(t, inst.g, opt)
				restore()
				if !slices.EqualFunc(allOn.Cliques, allOff.Cliques, slices.Equal[[]int32]) {
					t.Fatalf("%s k=%d δ=%d extra=%v: %d optima with the node bound, %d without",
						inst.name, kd[0], kd[1], opt.Extra, len(allOn.Cliques), len(allOff.Cliques))
				}
			}
		}
	}
	t.Logf("nodes: %d with the node bound, %d without", totalOn, totalOff)
	if totalOn >= totalOff {
		t.Fatalf("the node bound pruned nothing: %d nodes with it, %d without", totalOn, totalOff)
	}
}
