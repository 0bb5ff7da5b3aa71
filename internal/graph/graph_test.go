package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fairclique/internal/rng"
)

// pathGraph builds a path 0-1-2-...-n-1 with alternating attributes.
func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), Attr(v%2))
	}
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Build()
}

// completeGraph builds K_n with the first na vertices AttrA.
func completeGraph(n, na int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		if v < na {
			b.SetAttr(int32(v), AttrA)
		} else {
			b.SetAttr(int32(v), AttrB)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

func randomGraph(t testing.TB, seed uint64, n int, p float64) *Graph {
	t.Helper()
	r := rng.New(seed)
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), Attr(r.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("random graph invalid: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := pathGraph(5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("n=%d m=%d; want 5, 4", g.N(), g.M())
	}
	if g.Deg(0) != 1 || g.Deg(2) != 2 {
		t.Fatalf("unexpected degrees %d %d", g.Deg(0), g.Deg(2))
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Fatal("adjacency wrong")
	}
	if g.Attr(0) != AttrA || g.Attr(1) != AttrB {
		t.Fatal("attributes wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop, dropped
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("m=%d; want 1 after dedup", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestEdgeIDsRoundTrip(t *testing.T) {
	g := completeGraph(6, 3)
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		id, ok := g.EdgeID(u, v)
		if !ok || id != e {
			t.Fatalf("EdgeID(%d,%d) = %d,%v; want %d", u, v, id, ok, e)
		}
		id, ok = g.EdgeID(v, u)
		if !ok || id != e {
			t.Fatalf("EdgeID reversed (%d,%d) = %d,%v; want %d", v, u, id, ok, e)
		}
	}
	if _, ok := g.EdgeID(0, 0); ok {
		t.Fatal("self EdgeID should not exist")
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := completeGraph(5, 2)
	var got []int32
	g.CommonNeighbors(0, 1, func(w int32) { got = append(got, w) })
	want := []int32{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("common neighbours %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("common neighbours %v; want %v", got, want)
		}
	}
	if g.CountCommonNeighbors(0, 1) != 3 {
		t.Fatal("CountCommonNeighbors mismatch")
	}
	// Path: endpoints share nothing.
	p := pathGraph(4)
	if p.CountCommonNeighbors(0, 3) != 0 {
		t.Fatal("path endpoints should share no neighbours")
	}
	if p.CountCommonNeighbors(0, 2) != 1 {
		t.Fatal("0 and 2 share exactly vertex 1")
	}
}

// IntersectSorted must report every common value once, in increasing
// order: on balanced lengths (the linear merge) and on lengths skewed
// past 8× either way (the binary search from the shorter side).
func TestIntersectSorted(t *testing.T) {
	r := rng.New(3)
	sorted := func(n, span int) []int32 {
		seen := map[int32]bool{}
		var s []int32
		for len(s) < n {
			if v := int32(r.Intn(span)); !seen[v] {
				seen[v] = true
				s = append(s, v)
			}
		}
		slices.Sort(s)
		return s
	}
	for _, lens := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {40, 50}, {3, 200}, {200, 3}, {1, 1000}, {25, 25}} {
		for trial := 0; trial < 20; trial++ {
			a, b := sorted(lens[0], 1200), sorted(lens[1], 1200)
			var want []int32
			for _, x := range a {
				if _, ok := slices.BinarySearch(b, x); ok {
					want = append(want, x)
				}
			}
			var got []int32
			IntersectSorted(a, b, func(w int32) { got = append(got, w) })
			if !slices.Equal(got, want) {
				t.Fatalf("lens %v: common values %v, want %v", lens, got, want)
			}
		}
	}
}

func TestIsCliqueAndFairness(t *testing.T) {
	g := completeGraph(6, 3)
	all := []int32{0, 1, 2, 3, 4, 5}
	if !g.IsClique(all) {
		t.Fatal("K6 should be a clique")
	}
	if !g.IsFairClique(all, 3, 0) {
		t.Fatal("balanced K6 is a (3,0)-fair clique")
	}
	if g.IsFairClique(all, 4, 0) {
		t.Fatal("only 3 per attribute; k=4 must fail")
	}
	if g.IsFairClique([]int32{0, 1, 2, 3}, 2, 0) {
		// 3 a's and 1 b: diff 2 > 0 and b-count 1 < 2.
		t.Fatal("unbalanced subset accepted")
	}
	p := pathGraph(3)
	if p.IsClique([]int32{0, 1, 2}) {
		t.Fatal("path is not a clique")
	}
}

func TestAttrCountAndStats(t *testing.T) {
	g := completeGraph(7, 4)
	na, nb := g.AttrCount()
	if na != 4 || nb != 3 {
		t.Fatalf("attr counts %d %d; want 4 3", na, nb)
	}
	s := Summarize(g)
	if s.N != 7 || s.M != 21 || s.MaxDeg != 6 || s.Components != 1 {
		t.Fatalf("stats %+v", s)
	}
	if !strings.Contains(s.String(), "n=7") {
		t.Fatalf("stats string %q", s.String())
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comps := ConnectedComponents(g)
	if len(comps) != 4 {
		t.Fatalf("%d components; want 4", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][2] != 2 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[1]) != 2 || len(comps[2]) != 1 || len(comps[3]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

func TestInduce(t *testing.T) {
	g := completeGraph(6, 3)
	sub := Induce(g, []int32{1, 3, 5})
	if sub.G.N() != 3 || sub.G.M() != 3 {
		t.Fatalf("induced n=%d m=%d; want 3,3", sub.G.N(), sub.G.M())
	}
	if sub.G.Attr(0) != AttrA || sub.G.Attr(1) != AttrB || sub.G.Attr(2) != AttrB {
		t.Fatal("induced attributes wrong")
	}
	back := sub.MapToParent([]int32{0, 1, 2})
	if back[0] != 1 || back[1] != 3 || back[2] != 5 {
		t.Fatalf("MapToParent = %v", back)
	}
}

func TestInducePanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Induce(pathGraph(3), []int32{0, 0})
}

func TestInduceAlive(t *testing.T) {
	g := completeGraph(5, 2)
	alive := []bool{true, true, true, false, false}
	sub := InduceAlive(g, alive, nil)
	if sub.G.N() != 3 || sub.G.M() != 3 {
		t.Fatalf("n=%d m=%d; want triangle", sub.G.N(), sub.G.M())
	}
	// Kill one edge too.
	edgeAlive := make([]bool, g.M())
	for i := range edgeAlive {
		edgeAlive[i] = true
	}
	id, _ := g.EdgeID(0, 1)
	edgeAlive[id] = false
	sub = InduceAlive(g, alive, edgeAlive)
	if sub.G.M() != 2 {
		t.Fatalf("m=%d; want 2 after edge removal", sub.G.M())
	}
}

func TestEdgeSubset(t *testing.T) {
	g := completeGraph(4, 2) // 6 edges
	sub := EdgeSubset(g, []int32{0, 1, 2})
	if sub.N() != 4 || sub.M() != 3 {
		t.Fatalf("n=%d m=%d; want 4,3", sub.N(), sub.M())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := pathGraph(4)
	c := g.Clone()
	c.attrs[0] = AttrB
	if g.Attr(0) != AttrA {
		t.Fatal("clone shares attribute storage")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g := randomGraph(t, 1, 40, 0.15)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed size: %d,%d -> %d,%d", g.N(), g.M(), h.N(), h.M())
	}
	for v := int32(0); v < g.N(); v++ {
		if g.Attr(v) != h.Attr(v) {
			t.Fatalf("attribute of %d changed", v)
		}
	}
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		if !h.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost", u, v)
		}
	}
}

func TestReadPlainEdgeList(t *testing.T) {
	in := "# snap style\n0 1\n1 2\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Attr(2) != AttrA {
		t.Fatal("default attribute should be a")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"v 0\n",     // missing attr
		"v 0 x\n",   // bad attr
		"e 0\n",     // missing endpoint
		"e 0 zz\n",  // bad id
		"q 1 2 3\n", // unknown record
		"v -1 a\n",  // negative id
		"e -2 0\n",  // negative id in edge
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: want error", c)
		}
	}
}

// TestReadWithLimitsTable is the upload-robustness table: the daemon
// parses untrusted bodies through ReadWithLimits, so oversized and
// garbage input must be rejected with a line-numbered error — never a
// panic, a giant allocation commit, or a silently truncated graph.
func TestReadWithLimitsTable(t *testing.T) {
	lim := ReadLimits{MaxVertices: 100, MaxEdges: 10}
	cases := []struct {
		name, in string
		wantErr  string // substring; "" means the input must parse
	}{
		{"within-limits", "v 0 a\nv 1 b\ne 0 1\n", ""},
		{"vertex-id-at-cap", "v 99 b\n", ""},
		{"vertex-id-over-cap", "# c\nv 100 a\n", "line 2: vertex id 100 exceeds the 100-vertex limit"},
		{"edge-endpoint-over-cap", "e 0 2000000000\n", "line 1: vertex id 2000000000 exceeds the 100-vertex limit"},
		{"bare-endpoint-over-cap", "5 101\n", "line 1: vertex id 101 exceeds the 100-vertex limit"},
		{"too-many-edges", "e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 7\ne 7 8\ne 8 9\ne 9 10\ne 10 11\n", "line 11: edge count exceeds the 10-edge limit"},
		{"dups-count-against-cap", strings.Repeat("e 0 1\n", 11), "line 11: edge count exceeds"},
		{"garbage-line", "v 0 a\nnot a record\n", "line 2"},
		{"binary-garbage", "\x00\x01\x02\n", "line 1"},
		{"id-overflows-int32", "e 0 99999999999\n", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadWithLimits(strings.NewReader(tc.in), lim)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want success, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got graph n=%d m=%d", tc.wantErr, g.N(), g.M())
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
	// Unlimited Read must still accept everything the table allows and
	// agree with the limited parse.
	g1, err := Read(strings.NewReader("v 0 a\nv 1 b\ne 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ReadWithLimits(strings.NewReader("v 0 a\nv 1 b\ne 0 1\n"), lim)
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatalf("limited parse diverged: n %d vs %d, m %d vs %d", g1.N(), g2.N(), g1.M(), g2.M())
	}
}

func TestParseAttr(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Attr
	}{{"a", AttrA}, {"A", AttrA}, {"0", AttrA}, {"b", AttrB}, {"B", AttrB}, {"1", AttrB}} {
		got, err := ParseAttr(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAttr(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAttr("c"); err == nil {
		t.Error("ParseAttr(c) should fail")
	}
	if AttrA.Other() != AttrB || AttrB.Other() != AttrA {
		t.Error("Other() wrong")
	}
	if AttrA.String() != "a" || AttrB.String() != "b" {
		t.Error("String() wrong")
	}
}

func TestTriangleCount(t *testing.T) {
	if got := TriangleCount(completeGraph(5, 2)); got != 10 {
		t.Fatalf("K5 triangles = %d; want 10", got)
	}
	if got := TriangleCount(pathGraph(10)); got != 0 {
		t.Fatalf("path triangles = %d; want 0", got)
	}
	// Two disjoint triangles.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	if got := TriangleCount(b.Build()); got != 2 {
		t.Fatalf("triangles = %d; want 2", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram(pathGraph(5))
	if h[1] != 2 || h[2] != 3 {
		t.Fatalf("histogram %v", h)
	}
}

// Property: for random graphs, Validate passes, adjacency is symmetric,
// and the degree sum equals twice the edge count.
func TestGraphInvariantsProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8, p8 uint8) bool {
		n := int(n8%60) + 1
		p := float64(p8%90) / 100
		g := randomGraph(t, seed, n, p)
		var degSum int32
		for v := int32(0); v < g.N(); v++ {
			degSum += g.Deg(v)
			for _, w := range g.Neighbors(v) {
				if !g.HasEdge(w, v) {
					return false
				}
			}
		}
		return degSum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: induced subgraph of a clique stays a clique; induced
// subgraph edges are exactly the parent edges between kept vertices.
func TestInduceProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%40) + 2
		g := randomGraph(t, seed, n, 0.3)
		r := rng.New(seed ^ 0xabc)
		keepN := r.Intn(n) + 1
		keep := make([]int32, 0, keepN)
		for _, v := range r.Sample(n, keepN) {
			keep = append(keep, int32(v))
		}
		sub := Induce(g, keep)
		if err := sub.G.Validate(); err != nil {
			return false
		}
		// Check edge-for-edge equivalence.
		for i := 0; i < len(keep); i++ {
			for j := i + 1; j < len(keep); j++ {
				if g.HasEdge(keep[i], keep[j]) != sub.G.HasEdge(int32(i), int32(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	g := completeGraph(4, 2)
	path := t.TempDir() + "/g.txt"
	if err := WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 4 || h.M() != 6 {
		t.Fatalf("n=%d m=%d", h.N(), h.M())
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Fatal("missing file should error")
	}
}
