package graph

// Packed-bitset primitives of the branch-and-bound engine's flat
// candidate rows.

// ChunkBits = 4096 is the vertex count past which the engine stops
// building flat rows (a row table holds at most ChunkBits rows of
// ChunkBits/64 words, 2 MiB) and the reduction leaves its dense bitset
// kernels for sorted adjacency lists.
const ChunkBits = 4096

// BitWords returns the number of 64-bit words needed for n bits.
func BitWords(n int32) int32 { return (n + 63) / 64 }

// BitTest reports bit i of a packed row.
func BitTest(row []uint64, i int32) bool {
	return row[i>>6]&(1<<uint(i&63)) != 0
}

// BitSet sets bit i of a packed row.
func BitSet(row []uint64, i int32) {
	row[i>>6] |= 1 << uint(i&63)
}

// BitFillN sets bits [0, n) of row and clears any tail bits in the
// words that cover them. row must have at least BitWords(n) words.
func BitFillN(row []uint64, n int32) {
	full := n >> 6
	for i := int32(0); i < full; i++ {
		row[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		row[full] = (1 << uint(rem)) - 1
	}
}
