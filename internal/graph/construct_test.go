package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"fairclique/internal/rng"
)

// referenceCSR builds the canonical CSR of an edge multiset the slow,
// obvious way: canonicalise every pair and drop self-loops, sort and
// dedupe the edge list, then give each vertex its (neighbour, edge id)
// pairs sorted by neighbour.
func referenceCSR(attrs []Attr, pairs [][2]int32) *Graph {
	var edges [][2]int32
	for _, e := range pairs {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, [2]int32{u, v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	var uniq [][2]int32
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	n := len(attrs)
	rows := make([][][2]int32, n)
	for id, e := range uniq {
		rows[e[0]] = append(rows[e[0]], [2]int32{e[1], int32(id)})
		rows[e[1]] = append(rows[e[1]], [2]int32{e[0], int32(id)})
	}
	g := &Graph{offsets: make([]int32, n+1), attrs: slices.Clone(attrs), edges: uniq}
	for v, row := range rows {
		sort.Slice(row, func(i, j int) bool { return row[i][0] < row[j][0] })
		for _, p := range row {
			g.nbrs = append(g.nbrs, p[0])
			g.eids = append(g.eids, p[1])
		}
		g.offsets[v+1] = int32(len(g.nbrs))
	}
	return g
}

// requireCSR fails unless got is field for field the reference CSR
// want and passes Validate.
func requireCSR(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	for _, f := range []struct {
		name string
		same bool
	}{
		{"offsets", slices.Equal(got.offsets, want.offsets)},
		{"nbrs", slices.Equal(got.nbrs, want.nbrs)},
		{"eids", slices.Equal(got.eids, want.eids)},
		{"edges", slices.Equal(got.edges, want.edges)},
		{"attrs", slices.Equal(got.attrs, want.attrs)},
	} {
		if !f.same {
			t.Fatalf("%s: %s differ from the reference CSR", what, f.name)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// constructionCases yields random attributed graphs from empty to 200
// vertices over a range of densities, every case twice: at the default
// placement cutoff, and then with every placement split in two halves
// (edge counts 0, 1, odd and even).
func constructionCases(t *testing.T, fn func(name string, r *rng.RNG, g *Graph)) {
	t.Helper()
	for _, split := range []string{"", " split"} {
		if split != "" {
			setSplitPlacement(t, 0)
		}
		seed := uint64(0)
		for _, n := range []int{0, 1, 2, 5, 17, 60, 200} {
			for _, p := range []float64{0.05, 0.3, 0.8} {
				seed++
				r := rng.New(seed)
				fn(fmt.Sprintf("n=%d p=%.2f%s", n, p, split), r, randomGraph(t, seed, n, p))
			}
		}
	}
}

// setSplitPlacement sets splitPlacementEdges for the rest of the test.
func setSplitPlacement(tb testing.TB, edges int) {
	tb.Helper()
	old := splitPlacementEdges
	splitPlacementEdges = edges
	tb.Cleanup(func() { splitPlacementEdges = old })
}

// edgesOf lists g's edges between kept vertices, relabeled by toSub
// (-1 drops a vertex), in any order.
func edgesOf(g *Graph, toSub []int32, edgeAlive []bool) [][2]int32 {
	var out [][2]int32
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		if (edgeAlive != nil && !edgeAlive[e]) || toSub[u] < 0 || toSub[v] < 0 {
			continue
		}
		out = append(out, [2]int32{toSub[v], toSub[u]})
	}
	return out
}

// Every CSR constructor — Builder, InduceAlive, Induce and
// InduceComponent — returns exactly the reference CSR of its edge set.
func TestConstructionMatchesReference(t *testing.T) {
	t.Run("Builder", func(t *testing.T) {
		constructionCases(t, func(name string, r *rng.RNG, g *Graph) {
			n := int(g.N())
			b := NewBuilder(n)
			copy(b.attrs, g.attrs)
			var pairs [][2]int32
			add := func(count int) {
				for i := 0; i < count && n > 0; i++ {
					u, v := int32(r.Intn(n)), int32(r.Intn(n))
					if r.Bool(0.1) && len(pairs) > 0 {
						e := pairs[r.Intn(len(pairs))]
						u, v = e[1], e[0] // a duplicate, reversed
					}
					b.AddEdge(u, v) // self-loops included
					pairs = append(pairs, [2]int32{u, v})
				}
			}
			add(int(g.M()))
			first := b.Build()
			requireCSR(t, name+" first Build", first, referenceCSR(g.attrs, pairs))
			snapshot := slices.Clone(pairs)
			add(n)
			requireCSR(t, name+" second Build", b.Build(), referenceCSR(g.attrs, pairs))
			requireCSR(t, name+" first graph after reuse", first, referenceCSR(g.attrs, snapshot))
		})
	})

	t.Run("InduceAlive", func(t *testing.T) {
		constructionCases(t, func(name string, r *rng.RNG, g *Graph) {
			n := int(g.N())
			all, none, some := make([]bool, n), make([]bool, n), make([]bool, n)
			for v := range all {
				all[v], some[v] = true, r.Bool(0.6)
			}
			edgeAlive := make([]bool, g.M())
			for e := range edgeAlive {
				edgeAlive[e] = r.Bool(0.7)
			}
			for _, tc := range []struct {
				label  string
				alive  []bool
				eAlive []bool
			}{
				{"all alive", all, nil},
				{"none alive", none, nil},
				{"random mask", some, nil},
				{"random masks", some, edgeAlive},
				{"all alive, edge mask", all, edgeAlive},
			} {
				toSub := make([]int32, n)
				var vs []int32
				var attrs []Attr
				for v := range toSub {
					toSub[v] = -1
					if tc.alive[v] {
						toSub[v] = int32(len(vs))
						vs = append(vs, int32(v))
						attrs = append(attrs, g.attrs[v])
					}
				}
				sub := InduceAlive(g, tc.alive, tc.eAlive)
				requireCSR(t, name+" "+tc.label, sub.G, referenceCSR(attrs, edgesOf(g, toSub, tc.eAlive)))
				if !slices.Equal(sub.ToParent, vs) {
					t.Fatalf("%s %s: ToParent %v, want %v", name, tc.label, sub.ToParent, vs)
				}
			}
		})
	})

	t.Run("Induce", func(t *testing.T) {
		constructionCases(t, func(name string, r *rng.RNG, g *Graph) {
			n := int(g.N())
			var ascending []int32
			for v := 0; v < n; v++ {
				if r.Bool(0.5) {
					ascending = append(ascending, int32(v))
				}
			}
			shuffled := slices.Clone(ascending)
			r.ShuffleInt32s(shuffled)
			perm := make([]int32, n)
			for i, v := range r.Perm(n) {
				perm[i] = int32(v)
			}
			for _, tc := range []struct {
				label string
				vs    []int32
			}{
				{"ascending", ascending},
				{"shuffled", shuffled},
				{"permutation", perm},
				{"empty", nil},
			} {
				toSub := make([]int32, n)
				for v := range toSub {
					toSub[v] = -1
				}
				attrs := make([]Attr, len(tc.vs))
				for i, v := range tc.vs {
					toSub[v] = int32(i)
					attrs[i] = g.attrs[v]
				}
				sub := Induce(g, tc.vs)
				requireCSR(t, name+" "+tc.label, sub.G, referenceCSR(attrs, edgesOf(g, toSub, nil)))
				if !slices.Equal(sub.ToParent, tc.vs) {
					t.Fatalf("%s %s: ToParent %v, want %v", name, tc.label, sub.ToParent, tc.vs)
				}
			}
			if n < 2 {
				return
			}
			for _, dup := range [][]int32{{0, 0}, append(slices.Clone(perm), perm[n/2])} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: Induce(%v) with a duplicate did not panic", name, dup)
						}
					}()
					Induce(g, dup)
				}()
			}
		})
	})

	t.Run("AliveComponents", func(t *testing.T) {
		// Components of an alive mask, each induced with a local id
		// table shared by all of them, as PipelineN induces them.
		constructionCases(t, func(name string, r *rng.RNG, g *Graph) {
			alive := make([]bool, g.N())
			for v := range alive {
				alive[v] = r.Bool(0.7)
			}
			comps := Components(g, alive)
			pre := InduceAlive(g, alive, nil)
			want := ConnectedComponents(pre.G)
			if len(comps) != len(want) {
				t.Fatalf("%s: %d components, want %d", name, len(comps), len(want))
			}
			local := make([]int32, g.N())
			for ci, comp := range want {
				what := fmt.Sprintf("%s component %d", name, ci)
				got := InduceComponent(g, comps[ci], alive, local)
				ref := Induce(pre.G, comp)
				requireCSR(t, what, got.G, ref.G)
				toParent := pre.MapToParent(ref.ToParent)
				if !slices.Equal(got.ToParent, toParent) {
					t.Fatalf("%s: ToParent %v, want %v", what, got.ToParent, toParent)
				}
				toSub := make([]int32, g.N())
				for v := range toSub {
					toSub[v] = -1
				}
				for i, v := range toParent {
					toSub[v] = int32(i)
				}
				requireCSR(t, what, got.G, referenceCSR(ref.G.attrs, edgesOf(g, toSub, nil)))
			}
		})
	})
}

// Relabeling a whole graph by a permutation through Induce gives the
// graph a Builder makes from the permuted attributes and edges.
func TestPermuteMatchesInduce(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := randomGraph(t, seed, 40, 0.3)
		r := rng.New(seed + 77)
		order := make([]int32, g.N())
		for i := range order {
			order[i] = int32(i)
		}
		r.ShuffleInt32s(order)
		inv := make([]int32, g.N())
		for i, v := range order {
			inv[v] = int32(i)
		}
		b := NewBuilder(int(g.N()))
		for i, v := range order {
			b.SetAttr(int32(i), g.Attr(v))
		}
		for e := int32(0); e < g.M(); e++ {
			u, v := g.Edge(e)
			b.AddEdge(inv[u], inv[v])
		}
		requireCSR(t, fmt.Sprintf("seed %d", seed), Induce(g, order).G, b.Build())
	}
}
