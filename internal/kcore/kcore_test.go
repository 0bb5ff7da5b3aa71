package kcore

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

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Build()
}

func random(seed uint64, n int, p float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// bruteCore computes core numbers by repeated scanning — the O(n^2 m)
// reference implementation used as an oracle.
func bruteCore(g *graph.Graph) []int32 {
	n := int(g.N())
	core := make([]int32, n)
	for k := int32(0); ; k++ {
		alive := make([]bool, n)
		deg := make([]int32, n)
		for v := 0; v < n; v++ {
			alive[v] = true
			deg[v] = g.Deg(int32(v))
		}
		for changed := true; changed; {
			changed = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] < k {
					alive[v] = false
					changed = true
					for _, w := range g.Neighbors(int32(v)) {
						deg[w]--
					}
				}
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestDecomposeComplete(t *testing.T) {
	g := complete(6)
	d := Decompose(g)
	if d.Degeneracy != 5 {
		t.Fatalf("K6 degeneracy %d; want 5", d.Degeneracy)
	}
	for v := int32(0); v < 6; v++ {
		if d.Core[v] != 5 {
			t.Fatalf("K6 core[%d] = %d; want 5", v, d.Core[v])
		}
	}
	if len(d.Order) != 6 {
		t.Fatalf("order length %d", len(d.Order))
	}
}

func TestDecomposePath(t *testing.T) {
	d := Decompose(path(10))
	if d.Degeneracy != 1 {
		t.Fatalf("path degeneracy %d; want 1", d.Degeneracy)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	d := Decompose(graph.NewBuilder(0).Build())
	if d.Degeneracy != 0 || len(d.Order) != 0 {
		t.Fatalf("empty graph decomposition %+v", d)
	}
	d = Decompose(graph.NewBuilder(4).Build())
	if d.Degeneracy != 0 || len(d.Order) != 4 {
		t.Fatalf("edgeless graph decomposition %+v", d)
	}
}

func TestDecomposeMixed(t *testing.T) {
	// Triangle with a pendant: triangle cores 2, pendant core 1.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	d := Decompose(b.Build())
	want := []int32{2, 2, 2, 1}
	for v, w := range want {
		if d.Core[v] != w {
			t.Fatalf("core = %v; want %v", d.Core, want)
		}
	}
	// Peeling order must start with the pendant.
	if d.Order[0] != 3 {
		t.Fatalf("order %v; pendant should peel first", d.Order)
	}
}

func TestDecomposeAgainstBrute(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := random(seed, 50, 0.12)
		want := bruteCore(g)
		got := Decompose(g).Core
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seed %d: core[%d] = %d; want %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestOrderIsValidDegeneracyOrder(t *testing.T) {
	// In a degeneracy order, each vertex has at most `degeneracy`
	// neighbours later in the order.
	g := random(3, 80, 0.15)
	d := Decompose(g)
	rank := make([]int32, g.N())
	for i, v := range d.Order {
		rank[v] = int32(i)
	}
	for _, v := range d.Order {
		later := int32(0)
		for _, w := range g.Neighbors(v) {
			if rank[w] > rank[v] {
				later++
			}
		}
		if later > d.Degeneracy {
			t.Fatalf("vertex %d has %d later neighbours > degeneracy %d", v, later, d.Degeneracy)
		}
	}
}

func TestKCore(t *testing.T) {
	// Triangle + pendant: 2-core is the triangle.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	alive := KCore(g, 2)
	want := []bool{true, true, true, false}
	for v := range want {
		if alive[v] != want[v] {
			t.Fatalf("2-core mask %v; want %v", alive, want)
		}
	}
	sub := KCoreSubgraph(g, 2)
	if sub.G.N() != 3 || sub.G.M() != 3 {
		t.Fatalf("2-core subgraph n=%d m=%d", sub.G.N(), sub.G.M())
	}
	// 3-core is empty.
	for _, ok := range KCore(g, 3) {
		if ok {
			t.Fatal("3-core should be empty")
		}
	}
}

func TestKCoreMinDegreeProperty(t *testing.T) {
	f := func(seed uint64, n8, k8 uint8) bool {
		n := int(n8%50) + 1
		k := int32(k8 % 6)
		g := random(seed, n, 0.15)
		sub := KCoreSubgraph(g, k)
		for v := int32(0); v < sub.G.N(); v++ {
			if sub.G.Deg(v) < k {
				return false
			}
		}
		// Maximality: at every threshold the mask keeps exactly the
		// vertices of core number >= k, so no peel may drop more.
		core := Decompose(g).Core
		for k := int32(0); k <= g.MaxDegree()+1; k++ {
			for v, ok := range KCore(g, k) {
				if ok != (core[v] >= k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHIndex(t *testing.T) {
	if h := HIndex(complete(5)); h != 4 {
		t.Fatalf("K5 h-index %d; want 4", h)
	}
	if h := HIndex(path(10)); h != 2 {
		t.Fatalf("path h-index %d; want 2", h)
	}
	if h := HIndex(graph.NewBuilder(0).Build()); h != 0 {
		t.Fatalf("empty h-index %d", h)
	}
}

func TestHIndexOf(t *testing.T) {
	cases := []struct {
		seq  []int32
		want int32
	}{
		{nil, 0},
		{[]int32{0, 0, 0}, 0},
		{[]int32{5, 5, 5, 5, 5}, 5},
		{[]int32{10, 8, 5, 4, 3}, 4},
		{[]int32{1}, 1},
		{[]int32{100}, 1},
		{[]int32{3, 3, 3}, 3},
		{[]int32{2, 2, 2, 2}, 2},
	}
	for _, tc := range cases {
		if got := HIndexOf(tc.seq); got != tc.want {
			t.Errorf("HIndexOf(%v) = %d; want %d", tc.seq, got, tc.want)
		}
	}
}

// Degeneracy <= h-index <= max degree, for any graph.
func TestDegeneracyHIndexChain(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%60) + 1
		g := random(seed, n, 0.2)
		deg := Degeneracy(g)
		h := HIndex(g)
		return deg <= h && h <= g.MaxDegree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecompose(b *testing.B) {
	g := random(1, 3000, 0.004)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(g)
	}
}
