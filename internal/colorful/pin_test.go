package colorful

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"fairclique/internal/color"
)

// peelHash is an FNV-64a hash of the colorful core masks at k = 1..4,
// the enhanced core masks at k = 1..4, and Decompose's order and core
// numbers on one graph.
func peelHash(seed uint64, n int, p float64) uint64 {
	g := random(seed, n, p)
	col := color.Greedy(g)
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	mask := func(alive []bool) {
		for _, ok := range alive {
			if ok {
				put(1)
			} else {
				put(0)
			}
		}
	}
	for k := int32(1); k <= 4; k++ {
		mask(KCore(g, col, k))
		mask(EnhancedKCore(g, col, k))
	}
	d := Decompose(g, col)
	for i, v := range d.Order {
		put(v)
		put(d.Core[i]) // Core in vertex order
	}
	put(d.Degeneracy)
	return h.Sum64()
}

// The colorful peels are deterministic: their masks and Decompose's
// order (which ranks every branch-and-bound search's vertices) are
// pinned exactly on four random graphs.
func TestPeelsPinned(t *testing.T) {
	cases := []struct {
		seed uint64
		n    int
		p    float64
		want uint64
	}{
		{1, 60, 0.2, 0xbd963520246f5524},
		{2, 120, 0.1, 0x704c3d63169956c4},
		{3, 200, 0.15, 0x218cc4708ef22216},
		{4, 1500, 0.01, 0xdbd008f54df54e40},
	}
	for _, c := range cases {
		if got := peelHash(c.seed, c.n, c.p); got != c.want {
			t.Errorf("random(%d, %d, %g): peel hash %#x, want %#x", c.seed, c.n, c.p, got, c.want)
		}
	}
}
