package fairclique

import (
	"testing"

	"fairclique/internal/rng"
)

// graphModel is the test's own ground-truth mirror of a dynamic
// session's graph: attributes and an edge set maintained from first
// principles, with no shared code with graph.ApplyDelta. Rebuilding a
// fresh Graph from the model after every delta is what makes the
// differential test engine-vs-truth for the mutation layer too.
type graphModel struct {
	attrs []Attr
	edges map[[2]int]bool
}

func newGraphModel(g *Graph) *graphModel {
	m := &graphModel{edges: make(map[[2]int]bool)}
	for v := 0; v < g.N(); v++ {
		m.attrs = append(m.attrs, g.Attr(v))
		for _, w := range g.Neighbors(v) {
			if v < w {
				m.edges[[2]int{v, w}] = true
			}
		}
	}
	return m
}

func (m *graphModel) apply(d Delta) {
	for _, v := range d.DelVertices {
		for e := range m.edges {
			if e[0] == v || e[1] == v {
				delete(m.edges, e)
			}
		}
	}
	for _, e := range d.DelEdges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		delete(m.edges, [2]int{u, v})
	}
	m.attrs = append(m.attrs, d.AddVertices...)
	for _, e := range d.AddEdges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		m.edges[[2]int{u, v}] = true
	}
}

func (m *graphModel) build() *Graph {
	g := NewGraph(len(m.attrs))
	for v, a := range m.attrs {
		g.SetAttr(v, a)
	}
	for e := range m.edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// randomPublicDelta draws a delta valid for the model: inserts,
// deletes, and occasionally new vertices (wired by later inserts).
func randomPublicDelta(r *rng.RNG, m *graphModel) Delta {
	var d Delta
	n := len(m.attrs)
	for i := 0; i < r.Intn(2); i++ {
		d.AddVertices = append(d.AddVertices, Attr(r.Intn(2)))
	}
	newN := n + len(d.AddVertices)
	for i := 0; i < 1+r.Intn(4); i++ {
		u, v := r.Intn(newN), r.Intn(newN)
		if u != v {
			d.AddEdges = append(d.AddEdges, [2]int{u, v})
		}
	}
	var existing [][2]int
	for e := range m.edges {
		existing = append(existing, e)
	}
	for i := 0; i < r.Intn(4) && len(existing) > 0; i++ {
		e := existing[r.Intn(len(existing))]
		clash := false
		for _, a := range d.AddEdges {
			if (a[0] == e[0] && a[1] == e[1]) || (a[0] == e[1] && a[1] == e[0]) {
				clash = true
			}
		}
		if !clash {
			d.DelEdges = append(d.DelEdges, e)
		}
	}
	return d
}

// The dynamic differential wall at the public API: interleave random
// Apply deltas with grid queries and assert every post-delta
// Session.Find equals a Find on a from-scratch graph rebuilt by the
// test's own mirror — across all six Table II bound configs and the
// weak and strong modes.
func TestDynamicSessionMatchesFreshFindAllBounds(t *testing.T) {
	r := rng.New(77001)
	for seed := uint64(0); seed < 6; seed++ {
		bound := allBoundConfigs[seed%6]
		g := buildRandom(seed+400, 22+int(seed%3)*5, 0.35)
		m := newGraphModel(g)
		s := NewSession(g, SessionOptions{Bound: bound})
		var specs []QuerySpec
		for k := 1; k <= 3; k++ {
			specs = append(specs,
				QuerySpec{K: k, Delta: 0},
				QuerySpec{K: k, Delta: 2},
				QuerySpec{K: k, Mode: ModeWeak},
				QuerySpec{K: k, Mode: ModeStrong})
		}
		// Warm grid before the first delta.
		if _, err := s.FindGrid(specs); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			d := randomPublicDelta(r, m)
			if _, err := s.Apply(d); err != nil {
				t.Fatal(err)
			}
			m.apply(d)
			fresh := m.build()
			if s.N() != fresh.N() {
				t.Fatalf("seed=%d round=%d: session has %d vertices, mirror %d", seed, round, s.N(), fresh.N())
			}
			for _, spec := range specs {
				got, err := s.Find(spec)
				if err != nil {
					t.Fatal(err)
				}
				want := independentFind(t, fresh, spec, bound)
				if got.Size() != want.Size() {
					t.Fatalf("seed=%d round=%d bound=%v spec=%+v: session %d, fresh %d",
						seed, round, bound, spec, got.Size(), want.Size())
				}
				if got.Size() > 0 {
					delta := spec.Delta
					switch spec.Mode {
					case ModeWeak:
						delta = fresh.N()
					case ModeStrong:
						delta = 0
					}
					if !fresh.IsFairClique(got.Clique, spec.K, delta) {
						t.Fatalf("seed=%d round=%d spec=%+v: session clique invalid on the mutated graph",
							seed, round, spec)
					}
					if !got.Exact {
						t.Fatalf("seed=%d round=%d spec=%+v: inexact without MaxNodes", seed, round, spec)
					}
				}
			}
		}
		// The interleaved rounds must actually exercise the dynamic
		// machinery, not rebuild everything.
		st := s.Stats()
		if st.Applies != 4 || st.Epoch != 4 {
			t.Fatalf("seed=%d: applies/epoch = %d/%d, want 4/4", seed, st.Applies, st.Epoch)
		}
	}
}

// The invalidation stats must show what an Apply kept on a structured
// instance: a deletion inside one component re-peels the reduction, so
// no component machinery is reused, while the retained pool and bounds
// answer the requery after the far-away deletion without branching.
func TestDynamicSessionStatsShowReuse(t *testing.T) {
	// Two disjoint balanced K8s.
	g := NewGraph(16)
	for v := 0; v < 16; v++ {
		g.SetAttr(v, Attr(v%2))
	}
	for base := 0; base < 16; base += 8 {
		for u := base; u < base+8; u++ {
			for v := u + 1; v < base+8; v++ {
				g.AddEdge(u, v)
			}
		}
	}
	// Without the heuristic the incumbent starts empty, so the first
	// component is genuinely branched (and its machinery built); with
	// it, HeurRFC would seed the full K8 and the size prune would skip
	// every component before building anything.
	s := NewSession(g, SessionOptions{DisableHeuristic: true})
	if _, err := s.Find(QuerySpec{K: 2, Delta: 6}); err != nil {
		t.Fatal(err)
	}
	ast, err := s.Apply(Delta{DelEdges: [][2]int{{8, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if ast.SnapshotsRippled != 1 || ast.CompPrepsReused != 0 {
		t.Fatalf("rippled %d snapshots and reused %d component preps, want 1 and 0: %+v",
			ast.SnapshotsRippled, ast.CompPrepsReused, ast)
	}
	st := s.Stats()
	if st.CompPrepsReused != 0 || st.Applies != 1 {
		t.Fatalf("session stats: %+v; want 0 component preps reused and 1 apply", st)
	}
	nodesBefore := st.Nodes
	res, err := s.Find(QuerySpec{K: 2, Delta: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 8 {
		t.Fatalf("post-delta optimum %d, want 8 (the untouched K8)", res.Size())
	}
	st = s.Stats()
	if st.Nodes != nodesBefore {
		t.Fatalf("deletion-only requery branched %d nodes; retained bound+seed should answer it",
			st.Nodes-nodesBefore)
	}
}
