package graph

import (
	"testing"

	"fairclique/internal/rng"
)

// refRow materializes a chunked row back into a flat bitset by running
// AndInto against the full set, so every container kind round-trips
// through its own kernel.
func refRow(t *testing.T, m *ChunkedMatrix, v int32) []uint64 {
	t.Helper()
	src := NewLiveRow(m.Cols())
	src.FillN(m.Cols())
	dst := NewLiveRow(m.Cols())
	maskA := make([]uint64, BitWords(m.Cols()))
	m.AndInto(dst, src, v, nil, maskA)
	out := make([]uint64, len(dst.Words))
	for li, lw := range dst.Live {
		for c := int32(0); c < 64; c++ {
			if lw&(1<<uint(c)) == 0 {
				continue
			}
			chunk := int32(li)<<6 + c
			w0 := chunk << chunkWordShift
			w1 := w0 + ChunkWords
			if w1 > int32(len(out)) {
				w1 = int32(len(out))
			}
			copy(out[w0:w1], dst.Words[w0:w1])
		}
	}
	return out
}

// Each density regime must pick its intended container form, and every
// form must round-trip exactly.
func TestContainerSelection(t *testing.T) {
	cols := int32(3 * ChunkBits)
	cases := []struct {
		name string
		bits []int32
		kind uint8
	}{
		{"sparse-few", []int32{3, 70, 4000}, containerSparse},
		{"run-full-chunk", seq(0, ChunkBits), containerRun},
		{"run-two-blocks", append(seq(100, 400), seq(600, 900)...), containerRun},
		{"dense-scattered", everyOther(0, ChunkBits, 2), containerDense},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewChunkedBuilder(1, cols)
			b.AddRow(tc.bits)
			m := b.Build()
			if got := m.refs[0].kind; got != tc.kind {
				t.Fatalf("container kind = %d, want %d", got, tc.kind)
			}
			flat := refRow(t, m, 0)
			want := make([]uint64, BitWords(cols))
			for _, c := range tc.bits {
				BitSet(want, c)
			}
			for i := range want {
				if flat[i] != want[i] {
					t.Fatalf("word %d = %#x, want %#x", i, flat[i], want[i])
				}
			}
		})
	}
}

func seq(from, to int32) []int32 {
	out := make([]int32, 0, to-from)
	for c := from; c < to; c++ {
		out = append(out, c)
	}
	return out
}

func everyOther(from, to, step int32) []int32 {
	var out []int32
	for c := from; c < to; c += step {
		out = append(out, c)
	}
	return out
}

// AndInto must agree with a brute-force flat AND (including the fused
// per-mask counts) for random rows, random live patterns of src, and
// both restrict modes, across a multi-chunk column space.
func TestAndIntoMatchesFlatReference(t *testing.T) {
	const cols = 2*ChunkBits + 700 // 3 chunks, ragged tail
	words := BitWords(cols)
	r := rng.New(99)
	for trial := 0; trial < 60; trial++ {
		// A random row with mixed densities so all containers appear.
		var rowBits []int32
		mode := trial % 3
		for c := int32(0); c < cols; c++ {
			switch mode {
			case 0: // sparse
				if r.Bool(0.01) {
					rowBits = append(rowBits, c)
				}
			case 1: // runs
				if (c/97)%2 == 0 {
					rowBits = append(rowBits, c)
				}
			default: // dense scattered
				if r.Bool(0.45) {
					rowBits = append(rowBits, c)
				}
			}
		}
		b := NewChunkedBuilder(1, cols)
		b.AddRow(rowBits)
		m := b.Build()
		rowFlat := make([]uint64, words)
		for _, c := range rowBits {
			BitSet(rowFlat, c)
		}

		src := NewLiveRow(cols)
		maskA := make([]uint64, words)
		restrict := make([]uint64, words)
		for i := int32(0); i < words; i++ {
			src.Words[i] = r.Uint64()
			maskA[i] = r.Uint64()
			restrict[i] = r.Uint64()
		}
		// Clear tail bits beyond cols and mark a random subset of chunks
		// live; dead chunks are poisoned to prove they are never read.
		tail := make([]uint64, words)
		BitFillN(tail, cols)
		for i := range src.Words {
			src.Words[i] &= tail[i]
		}
		liveChunks := make([]bool, ChunkCount(cols))
		for c := range liveChunks {
			liveChunks[c] = r.Bool(0.7)
			if liveChunks[c] {
				BitSet(src.Live, int32(c))
			}
		}
		for c, live := range liveChunks {
			if !live {
				w0 := int32(c) << chunkWordShift
				w1 := w0 + ChunkWords
				if w1 > words {
					w1 = words
				}
				for i := w0; i < w1; i++ {
					src.Words[i] = ^uint64(0) // poison
				}
			}
		}

		for _, withRestrict := range []bool{false, true} {
			var rst []uint64
			if withRestrict {
				rst = restrict
			}
			dst := NewLiveRow(m.Cols())
			a, bCnt := m.AndInto(dst, src, 0, rst, maskA)

			var wantA, wantB int32
			want := make([]uint64, words)
			for i := int32(0); i < words; i++ {
				if !liveChunks[i>>chunkWordShift] {
					continue
				}
				x := src.Words[i] & rowFlat[i]
				if withRestrict {
					x &= rst[i]
				}
				want[i] = x
				wantA += popcnt(x & maskA[i])
				wantB += popcnt(x) - popcnt(x&maskA[i])
			}
			if a != wantA || bCnt != wantB {
				t.Fatalf("trial %d restrict=%v: counts (%d,%d), want (%d,%d)",
					trial, withRestrict, a, bCnt, wantA, wantB)
			}
			got := make([]uint64, words)
			for i := int32(0); i < words; i++ {
				if BitTest(dst.Live, i>>chunkWordShift) {
					got[i] = dst.Words[i]
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d restrict=%v word %d: %#x, want %#x",
						trial, withRestrict, i, got[i], want[i])
				}
			}
			// A live dst chunk must actually contain a set bit.
			for c := int32(0); c < ChunkCount(cols); c++ {
				if !BitTest(dst.Live, c) {
					continue
				}
				w0 := c << chunkWordShift
				w1 := w0 + ChunkWords
				if w1 > words {
					w1 = words
				}
				var nz uint64
				for i := w0; i < w1; i++ {
					nz |= dst.Words[i]
				}
				if nz == 0 {
					t.Fatalf("trial %d: chunk %d live but empty", trial, c)
				}
			}
		}
	}
}

func popcnt(w uint64) int32 {
	var n int32
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// Append and Count must see exactly the live bits, in increasing order.
func TestLiveRowAppendCount(t *testing.T) {
	const cols = ChunkBits + 321
	row := NewLiveRow(cols)
	bits := []int32{0, 63, 64, 511, ChunkBits - 1, ChunkBits, ChunkBits + 320}
	for _, c := range bits {
		BitSet(row.Words, c)
		BitSet(row.Live, c>>chunkShift)
	}
	got := row.Append(nil)
	if len(got) != len(bits) {
		t.Fatalf("Append returned %v, want %v", got, bits)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("Append returned %v, want %v", got, bits)
		}
	}
	if row.Count() != int32(len(bits)) {
		t.Fatalf("Count = %d, want %d", row.Count(), len(bits))
	}
	// Dead chunks are invisible even when their words are set.
	dead := NewLiveRow(cols)
	BitSet(dead.Words, 5)
	if out := dead.Append(nil); len(out) != 0 {
		t.Fatalf("dead chunk visible: %v", out)
	}
}

// CopyInto must reproduce live chunks and liveness, leaving dst usable.
func TestLiveRowCopyInto(t *testing.T) {
	const cols = 2*ChunkBits + 50
	r := rng.New(7)
	src := NewLiveRow(cols)
	for i := range src.Words {
		src.Words[i] = r.Uint64()
	}
	tail := make([]uint64, len(src.Words))
	BitFillN(tail, cols)
	for i := range src.Words {
		src.Words[i] &= tail[i]
	}
	BitSet(src.Live, 0)
	BitSet(src.Live, 2)
	dst := NewLiveRow(cols)
	for i := range dst.Words {
		dst.Words[i] = ^uint64(0) // stale garbage must not leak into live chunks
	}
	src.CopyInto(dst)
	want := src.Append(nil)
	got := dst.Append(nil)
	if len(want) != len(got) {
		t.Fatalf("copy: %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("copy bit %d: %d, want %d", i, got[i], want[i])
		}
	}
}

// FillN yields the full set with every covering chunk live.
func TestLiveRowFillN(t *testing.T) {
	for _, n := range []int32{1, 64, 4095, 4096, 4097, 9000} {
		row := NewLiveRow(n)
		row.FillN(n)
		if row.Count() != n {
			t.Fatalf("FillN(%d): Count = %d", n, row.Count())
		}
		out := row.Append(nil)
		for i, c := range out {
			if c != int32(i) {
				t.Fatalf("FillN(%d): bit %d = %d", n, i, c)
			}
		}
	}
}

// AndNot must equal q &^ row(v) computed from the flat form, for rows
// whose chunks mix dense, sparse and run containers, rows spanning two
// or more chunks, and q slices cut shorter than the row width — at a
// chunk boundary, mid-chunk, mid-run, and empty.
func TestAndNotMatchesFlatReference(t *testing.T) {
	const cols = 2*ChunkBits + 700 // 3 chunks, ragged tail
	words := BitWords(cols)
	r := rng.New(2718)
	const rows = 30
	b := NewChunkedBuilder(rows, cols)
	flat := make([][]uint64, rows)
	for v := 0; v < rows; v++ {
		// Chunk c of row v takes density regime (v+c)%3, so every row
		// mixes container kinds; every third row leaves its middle chunk
		// empty, so rows also skip chunks.
		var rowBits []int32
		for c := int32(0); c < cols; c++ {
			chunk := int(c >> chunkShift)
			if v%3 == 2 && chunk == 1 {
				continue
			}
			switch (v + chunk) % 3 {
			case 0: // sparse
				if r.Bool(0.01) {
					rowBits = append(rowBits, c)
				}
			case 1: // runs of 97 bits, crossing word boundaries
				if (c/97)%2 == int32(v%2) {
					rowBits = append(rowBits, c)
				}
			default: // dense scattered
				if r.Bool(0.45) {
					rowBits = append(rowBits, c)
				}
			}
		}
		b.AddRow(rowBits)
		flat[v] = make([]uint64, words)
		for _, c := range rowBits {
			BitSet(flat[v], c)
		}
	}
	m := b.Build()
	kinds := map[uint8]bool{}
	multi := 0
	for v := int32(0); v < rows; v++ {
		refs := m.refs[m.rowOff[v]:m.rowOff[v+1]]
		if len(refs) >= 2 {
			multi++
		}
		for _, ref := range refs {
			kinds[ref.kind] = true
		}
	}
	if len(kinds) != 3 || multi == 0 {
		t.Fatalf("fixture covers container kinds %v and %d multi-chunk rows; want all 3 kinds and ≥ 1", kinds, multi)
	}

	for _, nq := range []int32{words, words - 1, 2 * ChunkWords, ChunkWords + 5, ChunkWords, 3, 1, 0} {
		for v := int32(0); v < rows; v++ {
			q := make([]uint64, nq)
			for i := range q {
				q[i] = r.Uint64()
			}
			want := make([]uint64, nq)
			for i := range want {
				want[i] = q[i] &^ flat[v][i]
			}
			m.AndNot(q, v)
			for i := range want {
				if q[i] != want[i] {
					t.Fatalf("len(q)=%d row %d word %d: %#x, want %#x", nq, v, i, q[i], want[i])
				}
			}
		}
	}
}
