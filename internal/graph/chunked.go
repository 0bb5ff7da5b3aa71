package graph

import "math/bits"

// This file implements the chunked-container bitset rows that lifted the
// engine's old 4096-vertex cap: a roaring-style compressed row matrix
// (ChunkedMatrix) for the read-only per-vertex successor masks, and
// LiveRow, the flat candidate-set representation whose chunk-liveness
// bitmap keeps per-node work proportional to the touched chunks instead
// of the component size.
//
// # Geometry
//
// The column space is partitioned into chunks of ChunkBits = 4096
// columns = ChunkWords = 64 machine words, so an in-chunk bit position
// always fits in a uint16 (roaring's container invariant). A matrix row
// stores only its non-empty chunks, each in one of three container
// forms.
//
// # Container selection thresholds
//
// For each non-empty chunk the builder computes the cardinality (set
// bits) and the number of maximal runs of consecutive set bits, then
// picks the smallest encoding — the classic roaring "min storage" rule,
// which also tracks kernel cost here because every kernel's work is
// proportional to the container's footprint:
//
//   - dense:  window × 8 bytes, where window is the word range from the
//     first to the last set word of the chunk (≤ 64 words; 512 bytes
//     for a full chunk). A raw bitmap trimmed to its live window; the
//     AND kernel is a branch-free word loop — unrolled four words per
//     iteration, with the per-attribute popcounts summed into
//     block-level accumulators before touching the running counters,
//     so the OnesCount64 pairs stay off the loop-carried dependency
//     chain — over the window plus a
//     memclr of the rest of the chunk span — important when a
//     component's dense nucleus occupies a narrow id range inside a
//     chunk, which is the common case after peel-rank relabeling
//     (low-degree periphery peels first, so the nucleus clusters at
//     the top ids). Chosen for high-cardinality, fragmented chunks
//     (≥ ~256 scattered bits), and on ties, because its kernel has no
//     per-entry branches.
//   - sparse: 2 × cardinality bytes, a sorted uint16 array of in-chunk
//     bit positions. Wins below ~256 bits per chunk — the regime of
//     sparse-graph adjacency, where a vertex has a handful of
//     successors per 4096-vertex window. The kernel tests/sets
//     individual bits after a 512-byte memclr of the destination span.
//   - run:    4 × runs bytes, sorted (start, length) uint16 pairs.
//     Wins when set bits are consecutive — near-clique neighbourhoods
//     over contiguous id ranges, or an almost-full chunk (a single run
//     costs 4 bytes versus 512 dense). The kernel ANDs word-aligned
//     masks over each run.
//
// The thresholds are therefore not tuned constants but the crossover
// points of the three storage formulas; see chooseContainer.
const (
	// ChunkBits is the number of columns covered by one chunk.
	ChunkBits = 4096
	// ChunkWords is the number of 64-bit words per chunk.
	ChunkWords = ChunkBits / 64
	// chunkShift converts a column to its chunk index.
	chunkShift = 12
	// chunkWordShift converts a chunk index to its first word index.
	chunkWordShift = chunkShift - 6
)

// Container kinds (chunkRef.kind).
const (
	containerDense  uint8 = iota // chunkRef.n words of raw bitmap
	containerSparse              // chunkRef.n sorted uint16 bit positions
	containerRun                 // chunkRef.n sorted (start, length) uint16 pairs
)

// ChunkCount returns the number of chunks needed for n columns.
func ChunkCount(n int32) int32 { return (n + ChunkBits - 1) / ChunkBits }

// chunkRef locates one stored chunk of a row.
type chunkRef struct {
	chunk int32 // chunk index within the column space
	off   int32 // dense: index into words; sparse/run: index into u16
	n     int32 // dense: window word count; sparse: cardinality; run: run count
	woff  int32 // dense only: first window word within the chunk span
	kind  uint8
}

// ChunkedMatrix is a read-only matrix of chunked-container bit rows.
// All rows share backing arrays, so a matrix is a handful of
// allocations regardless of row count. Build one with ChunkedBuilder.
type ChunkedMatrix struct {
	cols    int32
	words   int32 // BitWords(cols): the flat width LiveRow operands use
	nchunks int32
	rowOff  []int32 // row v's chunks are refs[rowOff[v]:rowOff[v+1]]
	refs    []chunkRef
	words64 []uint64 // dense container storage
	u16     []uint16 // sparse and run container storage
}

// Cols returns the column count rows were built against.
func (m *ChunkedMatrix) Cols() int32 { return m.cols }

// RowBytes returns the compressed storage of row v in bytes (container
// payloads only), for memory accounting and tests.
func (m *ChunkedMatrix) RowBytes(v int32) int {
	total := 0
	for _, ref := range m.refs[m.rowOff[v]:m.rowOff[v+1]] {
		switch ref.kind {
		case containerDense:
			total += int(ref.n) * 8
		case containerSparse:
			total += int(ref.n) * 2
		case containerRun:
			total += int(ref.n) * 4
		}
	}
	return total
}

// ChunkedBuilder assembles a ChunkedMatrix row by row.
type ChunkedBuilder struct {
	m *ChunkedMatrix
}

// NewChunkedBuilder prepares a builder for rows × cols bits.
func NewChunkedBuilder(rows, cols int32) *ChunkedBuilder {
	return &ChunkedBuilder{m: &ChunkedMatrix{
		cols:    cols,
		words:   BitWords(cols),
		nchunks: ChunkCount(cols),
		rowOff:  make([]int32, 1, rows+1),
	}}
}

// spanWords returns the number of live words of the given chunk (the
// last chunk of a narrow column space covers fewer than ChunkWords).
func (m *ChunkedMatrix) spanWords(chunk int32) int32 {
	span := m.words - chunk<<chunkWordShift
	if span > ChunkWords {
		span = ChunkWords
	}
	return span
}

// AddRow appends the next row from its sorted list of set columns.
// Columns must be strictly increasing and in [0, cols).
func (b *ChunkedBuilder) AddRow(cols []int32) {
	m := b.m
	for i := 0; i < len(cols); {
		chunk := cols[i] >> chunkShift
		j := i
		for j < len(cols) && cols[j]>>chunkShift == chunk {
			j++
		}
		b.addChunk(chunk, cols[i:j])
		i = j
	}
	m.rowOff = append(m.rowOff, int32(len(m.refs)))
}

// addChunk encodes one chunk's sorted columns as the smallest of the
// three container forms (see the package comment on thresholds).
func (b *ChunkedBuilder) addChunk(chunk int32, cols []int32) {
	m := b.m
	card := int32(len(cols))
	runs := int32(1)
	for i := 1; i < len(cols); i++ {
		if cols[i] != cols[i-1]+1 {
			runs++
		}
	}
	base := chunk << chunkShift
	// The dense window: first to last set word within the chunk.
	firstWord := (cols[0] - base) >> 6
	lastWord := (cols[len(cols)-1] - base) >> 6
	window := lastWord - firstWord + 1
	denseBytes := window * 8
	sparseBytes := card * 2
	runBytes := runs * 4
	ref := chunkRef{chunk: chunk, off: int32(len(m.u16))}
	switch {
	case denseBytes <= sparseBytes && denseBytes <= runBytes:
		ref.kind = containerDense
		ref.off = int32(len(m.words64))
		ref.n = window
		ref.woff = firstWord
		start := len(m.words64)
		for i := int32(0); i < window; i++ {
			m.words64 = append(m.words64, 0)
		}
		for _, c := range cols {
			in := c - base - firstWord<<6
			m.words64[start+int(in>>6)] |= 1 << uint(in&63)
		}
	case runBytes <= sparseBytes:
		ref.kind = containerRun
		ref.n = runs
		for i := 0; i < len(cols); {
			j := i
			for j+1 < len(cols) && cols[j+1] == cols[j]+1 {
				j++
			}
			m.u16 = append(m.u16, uint16(cols[i]-base), uint16(j-i+1))
			i = j + 1
		}
	default:
		ref.kind = containerSparse
		ref.n = card
		for _, c := range cols {
			m.u16 = append(m.u16, uint16(c-base))
		}
	}
	m.refs = append(m.refs, ref)
}

// Build finalizes the matrix. The builder must not be reused.
func (b *ChunkedBuilder) Build() *ChunkedMatrix { return b.m }

// LiveRow is a flat n-bit set paired with a chunk-liveness bitmap: bit c
// of Live says chunk c of Words is meaningful. Words inside dead chunks
// are garbage — they are neither cleared nor read, which is what makes
// the candidate-set AND O(touched chunks) instead of O(n/64).
type LiveRow struct {
	Words []uint64
	Live  []uint64
}

// NewLiveRow returns a zero (all-dead) row over cols columns.
func NewLiveRow(cols int32) LiveRow {
	return LiveRow{
		Words: make([]uint64, BitWords(cols)),
		Live:  make([]uint64, BitWords(ChunkCount(cols))),
	}
}

// FillN makes the row the full set [0, n): every covering chunk is live.
// The row must be dimensioned for at least n columns.
func (r LiveRow) FillN(n int32) {
	BitFillN(r.Words, n)
	BitFillN(r.Live, ChunkCount(n))
}

// ForEachLiveChunk calls fn with the clamped word range [w0, w1) of
// every live chunk in increasing chunk order. fn returning false stops
// the scan early; the return value reports whether the scan completed.
// This is the one place the chunk-geometry arithmetic lives — every
// live-row traversal (copy, decode, count, the engine's candidate
// iteration) goes through it.
func (r LiveRow) ForEachLiveChunk(fn func(w0, w1 int32) bool) bool {
	words := int32(len(r.Words))
	for li, lw := range r.Live {
		cbase := int32(li) << 6
		for lw != 0 {
			chunk := cbase + int32(bits.TrailingZeros64(lw))
			lw &= lw - 1
			w0 := chunk << chunkWordShift
			w1 := w0 + ChunkWords
			if w1 > words {
				w1 = words
			}
			if !fn(w0, w1) {
				return false
			}
		}
	}
	return true
}

// CopyInto copies r into dst (same dimensions): the liveness bitmap plus
// the words of live chunks only.
func (r LiveRow) CopyInto(dst LiveRow) {
	copy(dst.Live, r.Live)
	r.ForEachLiveChunk(func(w0, w1 int32) bool {
		copy(dst.Words[w0:w1], r.Words[w0:w1])
		return true
	})
}

// Append appends the set columns of r's live chunks to dst in
// increasing order and returns the extended slice.
func (r LiveRow) Append(dst []int32) []int32 {
	r.ForEachLiveChunk(func(w0, w1 int32) bool {
		for wi := w0; wi < w1; wi++ {
			w := r.Words[wi]
			base := wi << 6
			for w != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return true
	})
	return dst
}

// Count returns the number of set columns in live chunks.
func (r LiveRow) Count() int32 {
	var n int32
	r.ForEachLiveChunk(func(w0, w1 int32) bool {
		for wi := w0; wi < w1; wi++ {
			n += int32(bits.OnesCount64(r.Words[wi]))
		}
		return true
	})
	return n
}

// AndInto computes dst = src ∧ row(v) — and, when restrict is non-nil,
// ∧ restrict — materializing only chunks that are live in src and
// stored in row v; every other chunk of dst is left dead. It returns
// the per-mask split of the result cardinality: a = |dst ∧ maskA|,
// b = |dst| − a, fused into the AND pass. src and dst must be
// dimensioned for m's columns and must not alias; restrict and maskA
// are flat full-width rows.
func (m *ChunkedMatrix) AndInto(dst, src LiveRow, v int32, restrict, maskA []uint64) (a, b int32) {
	for i := range dst.Live {
		dst.Live[i] = 0
	}
	for _, ref := range m.refs[m.rowOff[v]:m.rowOff[v+1]] {
		if !BitTest(src.Live, ref.chunk) {
			continue
		}
		base := ref.chunk << chunkWordShift
		var nz uint64
		switch ref.kind {
		case containerDense:
			// Clear the span outside the trimmed window, AND inside it.
			span := m.spanWords(ref.chunk)
			w0 := base + ref.woff
			for j := base; j < w0; j++ {
				dst.Words[j] = 0
			}
			for j := w0 + ref.n; j < base+span; j++ {
				dst.Words[j] = 0
			}
			cw := m.words64[ref.off : ref.off+ref.n]
			sw := src.Words[w0 : w0+ref.n : w0+ref.n]
			dw := dst.Words[w0 : w0+ref.n : w0+ref.n]
			mw := maskA[w0 : w0+ref.n : w0+ref.n]
			if restrict != nil {
				rw := restrict[w0 : w0+ref.n : w0+ref.n]
				var an, tn uint64
				// Dense AND kernel, 4 words per iteration: the four
				// lanes carry independent data chains, and the popcounts
				// accumulate into per-block sums (an = A-attribute bits,
				// tn = total bits) that are folded into a/b once per
				// block — the two-level accumulator that keeps the
				// per-word OnesCount64 pair off the loop-carried path.
				j := 0
				for ; j+4 <= len(cw); j += 4 {
					x0 := sw[j] & cw[j] & rw[j]
					x1 := sw[j+1] & cw[j+1] & rw[j+1]
					x2 := sw[j+2] & cw[j+2] & rw[j+2]
					x3 := sw[j+3] & cw[j+3] & rw[j+3]
					dw[j], dw[j+1], dw[j+2], dw[j+3] = x0, x1, x2, x3
					nz |= x0 | x1 | x2 | x3
					an = uint64(bits.OnesCount64(x0&mw[j])) +
						uint64(bits.OnesCount64(x1&mw[j+1])) +
						uint64(bits.OnesCount64(x2&mw[j+2])) +
						uint64(bits.OnesCount64(x3&mw[j+3]))
					tn = uint64(bits.OnesCount64(x0)) +
						uint64(bits.OnesCount64(x1)) +
						uint64(bits.OnesCount64(x2)) +
						uint64(bits.OnesCount64(x3))
					a += int32(an)
					b += int32(tn - an)
				}
				for ; j < len(cw); j++ {
					x := sw[j] & cw[j] & rw[j]
					dw[j] = x
					nz |= x
					pa := int32(bits.OnesCount64(x & mw[j]))
					a += pa
					b += int32(bits.OnesCount64(x)) - pa
				}
			} else {
				var an, tn uint64
				j := 0
				for ; j+4 <= len(cw); j += 4 {
					x0 := sw[j] & cw[j]
					x1 := sw[j+1] & cw[j+1]
					x2 := sw[j+2] & cw[j+2]
					x3 := sw[j+3] & cw[j+3]
					dw[j], dw[j+1], dw[j+2], dw[j+3] = x0, x1, x2, x3
					nz |= x0 | x1 | x2 | x3
					an = uint64(bits.OnesCount64(x0&mw[j])) +
						uint64(bits.OnesCount64(x1&mw[j+1])) +
						uint64(bits.OnesCount64(x2&mw[j+2])) +
						uint64(bits.OnesCount64(x3&mw[j+3]))
					tn = uint64(bits.OnesCount64(x0)) +
						uint64(bits.OnesCount64(x1)) +
						uint64(bits.OnesCount64(x2)) +
						uint64(bits.OnesCount64(x3))
					a += int32(an)
					b += int32(tn - an)
				}
				for ; j < len(cw); j++ {
					x := sw[j] & cw[j]
					dw[j] = x
					nz |= x
					pa := int32(bits.OnesCount64(x & mw[j]))
					a += pa
					b += int32(bits.OnesCount64(x)) - pa
				}
			}
		case containerSparse:
			span := m.spanWords(ref.chunk)
			dw := dst.Words[base : base+span]
			for j := range dw {
				dw[j] = 0
			}
			for _, e := range m.u16[ref.off : ref.off+ref.n] {
				wi := base + int32(e>>6)
				bit := uint64(1) << uint(e&63)
				if src.Words[wi]&bit == 0 {
					continue
				}
				if restrict != nil && restrict[wi]&bit == 0 {
					continue
				}
				dst.Words[wi] |= bit
				nz = 1
				if maskA[wi]&bit != 0 {
					a++
				} else {
					b++
				}
			}
		case containerRun:
			span := m.spanWords(ref.chunk)
			dw := dst.Words[base : base+span]
			for j := range dw {
				dw[j] = 0
			}
			pairs := m.u16[ref.off : ref.off+2*ref.n]
			for p := 0; p < len(pairs); p += 2 {
				start := int32(pairs[p])
				length := int32(pairs[p+1])
				w0 := start >> 6
				w1 := (start + length - 1) >> 6
				for wi := w0; wi <= w1; wi++ {
					mask := ^uint64(0)
					if wi == w0 {
						mask <<= uint(start & 63)
					}
					if wi == w1 {
						if rem := (start + length) & 63; rem != 0 {
							mask &= (1 << uint(rem)) - 1
						}
					}
					gi := base + wi
					x := src.Words[gi] & mask
					if restrict != nil {
						x &= restrict[gi]
					}
					dst.Words[gi] |= x
					nz |= x
					pa := int32(bits.OnesCount64(x & maskA[gi]))
					a += pa
					b += int32(bits.OnesCount64(x)) - pa
				}
			}
		}
		if nz != 0 {
			BitSet(dst.Live, ref.chunk)
		}
	}
	return a, b
}

// AndNot clears row v's bits from the flat word slice q, q &^= row(v),
// container by container: dense containers word by word over their
// window, sparse ones bit by bit, runs by word-aligned range. q may be
// shorter than the row width; row bits past its end are ignored. The
// engine's greedy colouring uses it to drop a class member's
// successors from the class's open candidates without decoding the row.
func (m *ChunkedMatrix) AndNot(q []uint64, v int32) {
	nq := int32(len(q))
	for _, ref := range m.refs[m.rowOff[v]:m.rowOff[v+1]] {
		base := ref.chunk << chunkWordShift
		if base >= nq {
			return // refs ascend by chunk: the rest lie past q
		}
		switch ref.kind {
		case containerDense:
			w0 := base + ref.woff
			cw := m.words64[ref.off : ref.off+ref.n]
			if w0+ref.n > nq {
				cw = cw[:max(nq-w0, 0)]
			}
			for j, x := range cw {
				q[w0+int32(j)] &^= x
			}
		case containerSparse:
			for _, e := range m.u16[ref.off : ref.off+ref.n] {
				wi := base + int32(e>>6)
				if wi >= nq {
					break
				}
				q[wi] &^= 1 << uint(e&63)
			}
		case containerRun:
			pairs := m.u16[ref.off : ref.off+2*ref.n]
			for p := 0; p < len(pairs); p += 2 {
				start := int32(pairs[p])
				end := start + int32(pairs[p+1]) // exclusive
				w0, w1 := base+start>>6, base+(end-1)>>6
				for wi := w0; wi <= w1 && wi < nq; wi++ {
					mask := ^uint64(0)
					if wi == w0 {
						mask <<= uint(start & 63)
					}
					if wi == w1 && end&63 != 0 {
						mask &= (1 << uint(end&63)) - 1
					}
					q[wi] &^= mask
				}
			}
		}
	}
}
