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
// incumbent, on the rows named by rows (see rowKind; "per-root" is
// forced when the component would take a flat table).
func boundWorker(t *testing.T, g *graph.Graph, k, delta int32, rows string) *worker {
	t.Helper()
	if rows == "per-root" {
		defer forcePerRootRows()()
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

// succList is the child list of branching on u from the ascending list
// c, built from u's adjacency list and a binary search in c per
// neighbour: the neighbours v of u in c with v > u or, unless declare
// is set, of the other attribute.
func succList(g *graph.Graph, c []int32, u int32, declare bool) []int32 {
	var out []int32
	for _, v := range g.Neighbors(u) {
		if _, in := slices.BinarySearch(c, v); !in {
			continue
		}
		if same := g.Attr(v) == g.Attr(u); same && v > u || !same && !declare {
			out = append(out, v)
		}
	}
	return out
}

// rowIDs returns the component ids of the table indices set in row.
func rowIDs(t *rowTable, row []uint64) []int32 {
	var out []int32
	for i := int32(0); i < t.n; i++ {
		if graph.BitTest(row, i) {
			out = append(out, t.ids[i])
		}
	}
	return out
}

// walkNodes visits the (R, C) nodes below the node (R = w.rbuf[:depth],
// C = c) in depth-first order, at most *budget of them: every candidate
// u is branched on, its child being C ∩ succ(u), restricted to u's
// attribute for a deterministic third of the children (the declare
// branches). R is always a clique adjacent to all of C.
func walkNodes(w *worker, depth int, c []int32, cnt [2]int32, budget *int, visit func(depth int, c []int32, cnt [2]int32)) {
	if *budget <= 0 {
		return
	}
	*budget--
	visit(depth, c, cnt)
	for _, u := range c {
		ncnt := cnt
		ncnt[w.d.comp.Attr(u)]++
		w.rbuf[depth] = u
		walkNodes(w, depth+1, succList(w.d.comp, c, u, (int(u)+depth)%3 == 0), ncnt, budget, visit)
	}
}

// tableRow writes the candidates c, a subset of t's vertices, as a row
// of t into dst and returns it.
func tableRow(t *rowTable, dst []uint64, c []int32) []uint64 {
	dst = dst[:t.words]
	clear(dst)
	for _, v := range c {
		i, _ := slices.BinarySearch(t.ids, v)
		graph.BitSet(dst, int32(i))
	}
	return dst
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
// 18 vertices, at every node of the walk it is at least the largest
// fair clique that contains R and lies in R ∪ C. On a flat table, C is
// a row of the component's table. On per-root rows it is priced as a
// list node and, below the root, as a row of the table over the root
// branch's candidates; the two must agree.
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
		for _, rows := range []string{"flat", "per-root"} {
			if rows == "flat" && !useFlatRows(g.N(), g.M()) {
				continue
			}
			w := boundWorker(t, g, k, delta, rows)
			w.ensureBits(1)
			budget := 1500
			walkNodes(w, 0, identity(g.N()), [2]int32{}, &budget, func(depth int, c []int32, cnt [2]int32) {
				var avail [2]int32
				for _, v := range c {
					avail[w.d.comp.Attr(v)]++
				}
				var ub int32
				if rows == "flat" {
					ub = w.nodeBound(cnt, avail, tableRow(w.t, w.cand[1], c), nil)
				} else {
					ub = w.nodeBound(cnt, avail, nil, c)
					if depth >= 1 {
						w.own.fill(w.d.comp, succList(w.d.comp, identity(g.N()), w.rbuf[0], false))
						if tb := w.nodeBound(cnt, avail, tableRow(w.t, w.cand[1], c), nil); tb != ub {
							t.Fatalf("trial %d k=%d δ=%d: R=%v C=%v: per-root table bound %d, list bound %d",
								trial, k, delta, w.rbuf[:depth], c, tb, ub)
						}
					}
				}
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
// nucleus (its flat table, and forced onto per-root rows) and of two
// components of more than two ChunkBits vertices (a dense nucleus in a
// sparse shell, and a uniform random graph whose neighbourhoods span
// the whole id range), the class count and its a-only/b-only/mixed
// split — of the table colouring on the node's row and of the list
// colouring on its list — equal first-fit colouring of C in id order
// built from adjacency lists. Per-root tables are rebuilt at every
// root branch over candidate sets of every size, so a table never
// reads rows or words left from a larger one.
func TestColourClassesMatchFirstFit(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		rows string
	}{
		{"searchcold-flat", searchColdNucleus(), "flat"},
		{"searchcold-perroot", searchColdNucleus(), "per-root"},
		{"multichunk-bigcomp", gen.BigComponent(11, 48, 0.55, 2*graph.ChunkBits+160), "per-root"},
		{"multichunk-er", gen.AssignUniform(12, gen.ErdosRenyi(12, 2*graph.ChunkBits+200, 20*(2*graph.ChunkBits+200)), 0.5), "per-root"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := boundWorker(t, tc.g, 2, 1, tc.rows)
			d := w.d
			if tc.name[:5] == "multi" && d.n <= 2*graph.ChunkBits {
				t.Fatalf("fixture has %d vertices; want > %d", d.n, 2*graph.ChunkBits)
			}
			col := make([]int32, d.n)
			for i := range col {
				col[i] = -1
			}
			// The list colouring needs its scratch on every row form.
			w.col, w.used, w.kinds = slices.Clone(col), make([]bool, d.comp.MaxDegree()+1), make([]uint8, d.comp.MaxDegree()+1)
			check := func(depth int) {
				row := w.cand[depth][:w.t.words]
				c := rowIDs(w.t, row)
				wa, wb, wm := firstFitSplit(d.comp, c, col)
				if a, b, m := w.colourClasses(row); a != wa || b != wb || m != wm {
					t.Fatalf("depth %d, |C|=%d: table classes a/b/mixed %d/%d/%d, first-fit %d/%d/%d",
						depth, len(c), a, b, m, wa, wb, wm)
				}
				if a, b, m := w.classesList(c); a != wa || b != wb || m != wm {
					t.Fatalf("depth %d, |C|=%d: list classes a/b/mixed %d/%d/%d, first-fit %d/%d/%d",
						depth, len(c), a, b, m, wa, wb, wm)
				}
			}
			r := rng.New(7)
			all := identity(d.n)
			w.ensureBits(1)
			if d.rows != nil {
				check(0)
			}
			for nodes := 0; nodes < 500; {
				top := 0
				if d.rows == nil {
					// A random root branch, on its own table.
					u := int32(r.Intn(int(d.n)))
					w.own.fill(d.comp, succList(d.comp, all, u, false))
					copy(w.cand[1], w.own.full)
					check(1)
					nodes++
					top = 1
				}
				for depth := top; ; depth++ {
					c := w.cand[depth][:w.t.words]
					ids := rowIDs(w.t, c)
					if len(ids) == 0 {
						break
					}
					i, _ := slices.BinarySearch(w.t.ids, ids[r.Intn(len(ids))])
					w.ensureBits(depth + 1)
					w.makeChildBits(w.cand[depth+1], c, int32(i), r.Bool(0.2))
					check(depth + 1)
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
