package graph

import (
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
