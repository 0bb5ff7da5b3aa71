package fairclique

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fairclique/internal/rng"
)

func buildComplete(n, na int) *Graph {
	g := NewGraph(n)
	for v := na; v < n; v++ {
		g.SetAttr(v, AttrB)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func buildRandom(seed uint64, n int, p float64) *Graph {
	r := rng.New(seed)
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.SetAttr(v, Attr(r.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestQuickstartFlow(t *testing.T) {
	g := buildComplete(4, 2)
	res, err := Find(g, Options{K: 2, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 4 || res.CountA != 2 || res.CountB != 2 {
		t.Fatalf("result %+v; want the whole K4", res)
	}
	if !res.Exact {
		t.Fatal("unbounded search must be exact")
	}
	if !g.IsFairClique(res.Clique, 2, 0) {
		t.Fatal("result fails own validity check")
	}
}

func TestGraphMutationInvalidatesCache(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	if g.M() != 1 {
		t.Fatalf("m=%d", g.M())
	}
	g.AddEdge(1, 2) // after freeze
	if g.M() != 2 {
		t.Fatalf("m=%d after mutation; want 2", g.M())
	}
	v := g.AddVertex(AttrB)
	if v != 3 || g.N() != 4 {
		t.Fatalf("AddVertex returned %d, n=%d", v, g.N())
	}
	if g.Attr(3) != AttrB {
		t.Fatal("attribute lost")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := buildComplete(5, 3)
	if g.Degree(0) != 4 {
		t.Fatalf("degree %d", g.Degree(0))
	}
	if !g.HasEdge(0, 4) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
	nbrs := g.Neighbors(2)
	if len(nbrs) != 4 || nbrs[0] != 0 {
		t.Fatalf("neighbors %v", nbrs)
	}
}

func TestFindOptionValidation(t *testing.T) {
	g := buildComplete(4, 2)
	if _, err := Find(g, Options{K: 0}); err == nil {
		t.Fatal("K=0 must error")
	}
	if _, err := Find(g, Options{K: 1, Delta: -1}); err == nil {
		t.Fatal("negative Delta must error")
	}
}

// The engine holds k and δ in int32. A wider value must be rejected,
// not wrapped into a different cell: k = 2³² + 2 once answered as k = 2
// and δ = 2³² as δ = 0. The int32 maximum itself is a valid query. A
// want of -1 asks for an error.
func TestKAndDeltaBeyondInt32(t *testing.T) {
	g := buildComplete(8, 5) // 5 a's, 3 b's
	for _, c := range []struct{ k, delta, want int }{
		{math.MaxInt32 + 1, 0, -1},
		{1<<32 + 2, 0, -1},
		{3, math.MaxInt32 + 1, -1},
		{3, 1 << 32, -1},
		{math.MaxInt32, 0, 0},
		{3, math.MaxInt32, 8},
	} {
		spec := QuerySpec{K: c.k, Delta: c.delta}
		one, err1 := Find(g, Options{K: c.k, Delta: c.delta})
		warm, err2 := NewSession(g).Find(spec)
		set, err3 := NewSession(g).Enumerate(spec)
		if c.want < 0 {
			if err1 == nil || err2 == nil || err3 == nil {
				t.Errorf("(k=%d, δ=%d): errors %v, %v, %v; want three", c.k, c.delta, err1, err2, err3)
			}
		} else if err := errors.Join(err1, err2, err3); err != nil ||
			one.Size() != c.want || warm.Size() != c.want || set.Size != c.want {
			t.Errorf("(k=%d, δ=%d): want size %d from Find, Session.Find and Session.Enumerate; err %v",
				c.k, c.delta, c.want, err)
		}
	}
	if _, _, err := Heuristic(g, 3, 1<<32); err == nil {
		t.Error("Heuristic accepted δ = 2³²")
	}
	if _, _, err := Reduce(g, 1<<32+2); err == nil {
		t.Error("Reduce accepted k = 2³² + 2")
	}
}

// A vertex id beyond int32 names no vertex. The Graph methods panic on
// it as on any id >= N, and Session.Apply rejects it and leaves the
// session as it was. An unchecked narrowing once wrapped 2³²+1 onto
// vertex 1: AddEdge(2³²+1, 2) added edge 1–2.
func TestVertexIDsBeyondInt32(t *testing.T) {
	g := buildComplete(4, 2)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"SetAttr", func() { g.SetAttr(1<<32, AttrB) }},
		{"AddEdge", func() { g.AddEdge(1<<32+1, 2) }},
		{"AddEdge", func() { g.AddEdge(0, -1<<32+3) }},
		{"Attr", func() { g.Attr(1 << 32) }},
		{"Degree", func() { g.Degree(1<<32 + 1) }},
		{"HasEdge", func() { g.HasEdge(1<<32+1, 2) }},
		{"Neighbors", func() { g.Neighbors(1<<32 + 2) }},
		{"IsFairClique", func() { g.IsFairClique([]int{0, 1<<32 + 1, 2, 3}, 2, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a vertex id beyond int32", c.name)
				}
			}()
			c.call()
		}()
	}
	if g.M() != 6 || g.Attr(0) != AttrA || g.Attr(2) != AttrB {
		t.Fatalf("graph changed: m=%d, attrs %v %v; want the balanced K4", g.M(), g.Attr(0), g.Attr(2))
	}

	s := NewSession(g)
	for _, d := range []Delta{
		{AddEdges: [][2]int{{1 << 32, 3}}, DelVertices: []int{1<<32 + 2}},
		{DelVertices: []int{1<<32 + 2}},
		{DelEdges: [][2]int{{0, -1<<32 + 1}}},
	} {
		if _, err := s.Apply(d); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Apply(%+v): error %v; want an out-of-range vertex id", d, err)
		}
	}
	r, err := s.Find(QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4 || s.M() != 6 {
		t.Fatalf("after the rejected deltas: size %d, m %d; want the untouched K4", r.Size(), s.M())
	}
}

// A far deadline never reads as spent. Core once stored it as
// UnixNano, which overflows past 2262, so a 250-year budget answered
// inexactly at once.
func TestFarDeadlineAnswersExactly(t *testing.T) {
	g := buildComplete(8, 4)
	for _, budget := range []time.Duration{time.Hour, 250 * 365 * 24 * time.Hour, math.MaxInt64} {
		r, err := NewSession(g).Find(QuerySpec{K: 2, Delta: 0, Deadline: budget})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exact || r.Size() != 8 {
			t.Errorf("deadline %v: (size, exact) = (%d, %v); want (8, true)", budget, r.Size(), r.Exact)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	opt := DefaultOptions(3, 1)
	if opt.K != 3 || opt.Delta != 1 || opt.DisableBounds || opt.DisableHeuristic {
		t.Fatalf("%+v", opt)
	}
	if opt.Bound != UBColorfulDegeneracy {
		t.Fatal("default bound should be colorful degeneracy")
	}
}

// Find must agree with the exhaustive baseline across random graphs
// and option variants — the public-API version of the oracle test.
func TestFindMatchesEnumerate(t *testing.T) {
	f := func(seed uint64, n8, k8, d8 uint8) bool {
		n := int(n8%20) + 4
		k := int(k8%3) + 1
		delta := int(d8 % 4)
		g := buildRandom(seed, n, 0.45)
		want := exhaustive(g, k, delta)
		for _, opt := range []Options{
			{K: k, Delta: delta},
			{K: k, Delta: delta, Bound: UBColorfulPath},
			{K: k, Delta: delta, DisableBounds: true, DisableHeuristic: true},
			{K: k, Delta: delta, DisableReduction: true},
		} {
			res, err := Find(g, opt)
			if err != nil {
				return false
			}
			if res.Size() != len(want) {
				return false
			}
			if res.Size() > 0 && !g.IsFairClique(res.Clique, k, delta) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestHeuristicAPI(t *testing.T) {
	g := buildComplete(10, 5)
	clique, ub, err := Heuristic(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clique) != 10 {
		t.Fatalf("heuristic found %d of 10", len(clique))
	}
	if ub < 10 {
		t.Fatalf("ub %d below optimum", ub)
	}
	if _, _, err := Heuristic(g, 0, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, _, err := Heuristic(g, 1, -1); err == nil {
		t.Fatal("delta<0 must error")
	}
}

func TestReduceAPI(t *testing.T) {
	// Balanced K8 with pendant vertices: pendants must be peeled.
	g := buildComplete(8, 4)
	p1 := g.AddVertex(AttrA)
	g.AddEdge(p1, 0)
	kept, stages, err := Reduce(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Fatalf("%d stages", len(stages))
	}
	if stages[0].Stage != "DegeneracyPrune" {
		t.Fatalf("stage 0 = %q, want the degeneracy pre-prune", stages[0].Stage)
	}
	if len(kept) != 8 {
		t.Fatalf("kept %d vertices; want the K8 only", len(kept))
	}
	for _, v := range kept {
		if v == p1 {
			t.Fatal("pendant survived reduction")
		}
	}
	if _, _, err := Reduce(g, 0); err == nil {
		t.Fatal("k=0 must error")
	}
}

func TestEnumerateValidation(t *testing.T) {
	g := buildComplete(4, 2)
	if _, err := Enumerate(g, 0, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := Enumerate(g, 1, -2); err == nil {
		t.Fatal("delta<0 must error")
	}
	got, err := Enumerate(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exact || got.Size != 0 || len(got.Cliques) != 0 {
		t.Fatalf("k=3 infeasible in K4(2,2); got %+v", got)
	}
	// The feasible cell: K4 with 2+2 attributes has exactly one
	// maximum (2, 0)-fair clique — the whole graph.
	got, err = Enumerate(g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exact || got.Size != 4 || len(got.Cliques) != 1 {
		t.Fatalf("K4(2,2) enumeration: want one size-4 clique, got %+v", got)
	}
}

func TestMaxNodesInexact(t *testing.T) {
	g := buildRandom(3, 60, 0.5)
	res, err := Find(g, Options{K: 1, Delta: 5, MaxNodes: 5, DisableReduction: true, DisableHeuristic: true, DisableBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("truncated search reported exact")
	}
}

func TestGraphIO(t *testing.T) {
	g := buildComplete(5, 2)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 5 || h.M() != 10 {
		t.Fatalf("round trip n=%d m=%d", h.N(), h.M())
	}
	if h.Attr(4) != AttrB {
		t.Fatal("attributes lost in round trip")
	}
	if _, err := ReadGraph(strings.NewReader("v x y z\n")); err == nil {
		t.Fatal("garbage should error")
	}
	if _, err := ReadGraphFile("/nonexistent/graph.txt"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestReadGraphFileRoundTrip(t *testing.T) {
	g := buildComplete(4, 2)
	path := t.TempDir() + "/g.txt"
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 4 {
		t.Fatalf("n=%d", h.N())
	}
}

func TestStatsSurfaceThroughAPI(t *testing.T) {
	g := buildRandom(9, 80, 0.2)
	res, err := Find(g, DefaultOptions(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReducedVertices > g.N() {
		t.Fatalf("reduction grew graph: %+v", res.Stats)
	}
	if res.Size() > 0 && res.CountA+res.CountB != res.Size() {
		t.Fatalf("counts %d+%d != size %d", res.CountA, res.CountB, res.Size())
	}
}
