package color

import (
	"testing"
	"testing/quick"

	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

func random(seed uint64, n int, p float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

func TestGreedyComplete(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		g := complete(n)
		c := Greedy(g)
		if int(c.Num) != n {
			t.Fatalf("K%d colored with %d colors; want %d", n, c.Num, n)
		}
		if err := c.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGreedyBipartite(t *testing.T) {
	// Complete bipartite K_{4,4}: greedy with degree order uses 2 colors.
	b := graph.NewBuilder(8)
	for u := 0; u < 4; u++ {
		for v := 4; v < 8; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.Build()
	c := Greedy(g)
	if c.Num != 2 {
		t.Fatalf("K4,4 colored with %d colors; want 2", c.Num)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyEmptyAndEdgeless(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	c := Greedy(g)
	if c.Num != 0 {
		t.Fatalf("empty graph used %d colors", c.Num)
	}
	g = graph.NewBuilder(5).Build()
	c = Greedy(g)
	if c.Num != 1 {
		t.Fatalf("edgeless graph used %d colors; want 1", c.Num)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPath(t *testing.T) {
	b := graph.NewBuilder(10)
	for v := 0; v < 9; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	g := b.Build()
	c := Greedy(g)
	if c.Num > 3 {
		t.Fatalf("path colored with %d colors; want <= 3", c.Num)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeDescOrder(t *testing.T) {
	// Star: center has max degree, must come first.
	b := graph.NewBuilder(6)
	for v := 1; v < 6; v++ {
		b.AddEdge(0, int32(v))
	}
	g := b.Build()
	order := degreeDescOrder(g, nil, nil, make([]int32, g.N()))
	if order[0] != 0 {
		t.Fatalf("star center not first: %v", order)
	}
	// Ties broken by id: leaves in increasing order.
	for i := 1; i < 5; i++ {
		if order[i] >= order[i+1] {
			t.Fatalf("tie-break by id violated: %v", order)
		}
	}
}

// GreedyOn colours each component of an alive mask in place, all into
// one slice and in any order, exactly as Greedy colours the component's
// induced graph: the same colour at every member and the same Num.
func TestGreedyOnMatchesInduce(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		r := rng.New(seed)
		g := random(seed, r.Intn(90), []float64{0.02, 0.05, 0.15}[seed%3])
		alive := make([]bool, g.N())
		for v := range alive {
			alive[v] = r.Bool(0.75)
		}
		colors := make([]int32, g.N())
		for v := range colors {
			colors[v] = -1
		}
		comps := graph.Components(g, alive)
		for _, i := range r.Perm(len(comps)) {
			vs := comps[i]
			got := GreedyOn(g, vs, alive, colors)
			want := Greedy(graph.Induce(g, vs).G)
			if got.Num != want.Num {
				t.Fatalf("seed %d component %v: %d colours, want %d", seed, vs, got.Num, want.Num)
			}
			for j, v := range vs {
				if colors[v] != want.Colors[j] {
					t.Fatalf("seed %d component %v: vertex %d colour %d, want %d", seed, vs, v, colors[v], want.Colors[j])
				}
			}
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	g := random(9, 80, 0.2)
	c1, c2 := Greedy(g), Greedy(g)
	for v := range c1.Colors {
		if c1.Colors[v] != c2.Colors[v] {
			t.Fatal("coloring not deterministic")
		}
	}
}

func TestClassSizes(t *testing.T) {
	g := complete(4)
	c := Greedy(g)
	sizes := c.ClassSizes()
	if len(sizes) != 4 {
		t.Fatalf("%d classes; want 4", len(sizes))
	}
	var sum int32
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("K4 class sizes %v; want all 1", sizes)
		}
		sum += s
	}
	if sum != 4 {
		t.Fatalf("class sizes sum %d", sum)
	}
}

// Property: greedy colorings are proper and use at most maxdeg+1 colors.
func TestGreedyProperty(t *testing.T) {
	f := func(seed uint64, n8, p8 uint8) bool {
		n := int(n8%70) + 1
		p := float64(p8%95) / 100
		g := random(seed, n, p)
		c := Greedy(g)
		if err := c.Validate(g); err != nil {
			return false
		}
		return c.Num <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedy(b *testing.B) {
	g := random(1, 2000, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g)
	}
}
