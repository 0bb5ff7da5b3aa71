package graph

import (
	"slices"
	"testing"

	"fairclique/internal/rng"
)

func randomGraphForBits(seed uint64, n int, p float64) *Graph {
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
	return b.Build()
}

func TestBitRowHelpers(t *testing.T) {
	row := make([]uint64, BitWords(130))
	BitFillN(row, 130)
	for i := int32(0); i < 130; i++ {
		if !BitTest(row, i) {
			t.Fatalf("bit %d should be set after BitFillN(130)", i)
		}
	}
	// Tail bits beyond n must stay clear.
	if row[2]>>2 != 0 {
		t.Fatal("tail bits set past n")
	}
	row2 := make([]uint64, BitWords(130))
	BitSet(row2, 0)
	BitSet(row2, 129)
	if !BitTest(row2, 0) || !BitTest(row2, 129) || BitTest(row2, 64) {
		t.Fatal("BitSet/BitTest inconsistent")
	}
}

func TestPermuteMatchesInduce(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := randomGraphForBits(seed, 40, 0.3)
		r := rng.New(seed + 77)
		order := make([]int32, g.N())
		for i := range order {
			order[i] = int32(i)
		}
		for i := len(order) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		want := Induce(g, order).G
		got := Permute(g, order)
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("size mismatch: %d/%d vs %d/%d", got.N(), got.M(), want.N(), want.M())
		}
		for v := int32(0); v < got.N(); v++ {
			if got.Attr(v) != want.Attr(v) {
				t.Fatalf("attr mismatch at %d", v)
			}
			for w := int32(0); w < got.N(); w++ {
				if got.HasEdge(v, w) != want.HasEdge(v, w) {
					t.Fatalf("edge (%d,%d) mismatch", v, w)
				}
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCSRScratchMatchesInduce(t *testing.T) {
	var sc CSRScratch // shared across seeds: views of every size reuse it
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraphForBits(seed, 50, 0.25)
		r := rng.New(seed + 100)
		// Random disjoint split: some vertices in set A, some in B.
		var a, b []int32
		for v := int32(0); v < g.N(); v++ {
			switch r.Intn(3) {
			case 0:
				a = append(a, v)
			case 1:
				b = append(b, v)
			}
		}
		vs := append(append([]int32(nil), a...), b...)
		view := make(map[int32]int32, len(vs))
		for i, v := range vs {
			view[v] = int32(i)
		}
		want := Induce(g, vs)
		// Twice, to exercise scratch reuse across epochs.
		for pass := 0; pass < 2; pass++ {
			sc.InduceView(g, a, b)
			if sc.N() != want.G.N() {
				t.Fatalf("view size %d, induced %d", sc.N(), want.G.N())
			}
			for i := int32(0); i < sc.N(); i++ {
				if sc.Verts[i] != want.ToParent[i] {
					t.Fatalf("vertex map mismatch at %d", i)
				}
				// Row i is exactly the view ids of vs[i]'s neighbours in
				// the view, in parent-id order.
				var row []int32
				for _, w := range g.Neighbors(vs[i]) {
					if j, ok := view[w]; ok {
						if !want.G.HasEdge(i, j) {
							t.Fatalf("parent edge (%d,%d) missing from induced graph", i, j)
						}
						row = append(row, j)
					}
				}
				if got := sc.Row(i); !slices.Equal(got, row) {
					t.Fatalf("seed %d pass %d: view row %d = %v, want %v", seed, pass, i, got, row)
				}
				if sc.Deg(i) != want.G.Deg(i) {
					t.Fatalf("degree mismatch at %d: view %d, induced %d", i, sc.Deg(i), want.G.Deg(i))
				}
			}
		}
	}
}
