package graph

import "testing"

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
