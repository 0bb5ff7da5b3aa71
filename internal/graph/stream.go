package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
)

// StreamConfig tunes the chunk-sorted CSR builder. The zero value
// selects defaults suitable for multi-million-edge inputs.
type StreamConfig struct {
	// ChunkEdges is the sorted-chunk granularity: edges are buffered,
	// sorted and sealed in chunks of this many entries. Default 1<<19.
	ChunkEdges int
	// MaxMemEdges bounds how many sealed edges stay in memory before
	// the builder merges them into one sorted run on disk. Default
	// 4*ChunkEdges.
	MaxMemEdges int
	// SpillDir is where sorted runs are spilled. Default os.TempDir().
	SpillDir string
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.ChunkEdges <= 0 {
		c.ChunkEdges = 1 << 19
	}
	if c.MaxMemEdges < c.ChunkEdges {
		c.MaxMemEdges = 4 * c.ChunkEdges
	}
	if c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	return c
}

// StreamStats reports what a StreamBuilder did, including a
// deterministic memory high-water mark used by the CI "never hold it
// twice" gate.
type StreamStats struct {
	// EdgesRead counts edge records accepted by AddEdge (before dedup,
	// after self-loop dropping).
	EdgesRead int64 `json:"edges_read"`
	// SelfLoops counts dropped u==v records.
	SelfLoops int64 `json:"self_loops"`
	// Duplicates counts records dropped because an identical canonical
	// edge was already present.
	Duplicates int64 `json:"duplicates"`
	// Vertices and Edges are the final CSR sizes.
	Vertices int32 `json:"vertices"`
	Edges    int64 `json:"edges"`
	// RunsSpilled is the number of sorted runs written to disk, and
	// SpilledBytes their total size.
	RunsSpilled  int   `json:"runs_spilled"`
	SpilledBytes int64 `json:"spilled_bytes"`
	// PeakTrackedBytes is the high-water mark of builder-owned memory:
	// edge buffers, the vertex remap, spill-run block buffers, the CSR
	// arrays themselves and the row cursors that place them. The remap
	// is charged what it allocates: 8+1 B per vertex (external id and
	// attribute), 4 B per id-table slot (old and new table both while
	// the table grows) and 48 B per id held by the map; the table and
	// the map are released before Build allocates the CSR. The figure
	// is computed analytically from buffer sizes (not sampled from the
	// runtime) so it is bit-deterministic and safe to gate on in CI.
	PeakTrackedBytes int64 `json:"peak_tracked_bytes"`
	// CSRBytes is the size of the finished CSR arrays (offsets,
	// adjacency, edge ids, canonical edge list, attributes). The
	// streaming claim is PeakTrackedBytes < 2*CSRBytes.
	CSRBytes int64 `json:"csr_bytes"`
}

// StreamBuilder assembles an immutable CSR Graph from an edge stream
// without ever holding the raw edge list and the CSR in memory at the
// same time. Edges are packed into sorted chunks; once the in-memory
// budget is exceeded the chunks are merged into sorted runs on disk.
// Build then merges the runs once, straight into the canonical edge
// list the Graph keeps, and places the adjacency from that list — so
// peak memory is the CSR plus bounded buffers, not the CSR plus a
// second copy of the edge list. Every merge, the spill's and Build's,
// is one tournament over the sorted sources, and spilled runs are read
// back in spillBufBytes blocks.
//
// External vertex ids are arbitrary non-negative int64s; they are
// remapped to dense int32 ids in first-seen order (stable across runs
// for the same input order). An id below the length of the id table
// looks its dense id up there with one array load. The table doubles
// to cover a new id only while it stays within remapSlotsPerVertex
// slots per vertex interned so far plus remapTableSlack, so one huge
// id never allocates a huge table; ids past that cap go to a map, and
// a growth moves the map's ids it covers into the table. The remap is
// charged 8+1 B per vertex, 4 B per table slot and 48 B per map entry
// in PeakTrackedBytes. Self-loops are dropped and duplicate / reversed
// edges are deduplicated. A StreamBuilder is single-use and not safe
// for concurrent use.
type StreamBuilder struct {
	cfg StreamConfig

	// The remap: an id x < len(table) is interned iff table[x] != 0,
	// with dense id table[x]-1; every other interned id is a key of
	// remap.
	table []int32
	remap map[int64]int32
	ext   []int64
	attrs []Attr

	cur      []uint64   // current unsorted chunk, cap cfg.ChunkEdges
	mem      [][]uint64 // sealed sorted chunks
	memEdges int
	runs     []*os.File // sorted on-disk runs

	stats   StreamStats
	tracked int64 // current builder-owned bytes (deterministic accounting)
	done    bool
}

// spillBufBytes is the block size in which a spill run is written and
// read back during Build's merge (counted in PeakTrackedBytes).
const spillBufBytes = 32 << 10

// The deterministic accounting charges of the remap: per interned
// vertex its external id and attribute byte, per table slot one int32,
// and per id held by the map a conservative map entry.
const (
	bytesPerVertex    = 8 + 1
	bytesPerTableSlot = 4
	bytesPerMapEntry  = 48
)

// remapSlotsPerVertex and remapTableSlack cap the id table at
// remapSlotsPerVertex*interned + remapTableSlack slots. The slack is a
// var only so tests can reach the map path with small streams.
const remapSlotsPerVertex = 16

var remapTableSlack int64 = 1 << 16

// NewStreamBuilder returns a builder with the given configuration.
func NewStreamBuilder(cfg StreamConfig) *StreamBuilder {
	cfg = cfg.withDefaults()
	sb := &StreamBuilder{
		cfg:   cfg,
		remap: make(map[int64]int32),
		cur:   make([]uint64, 0, cfg.ChunkEdges),
	}
	sb.track(int64(8 * cfg.ChunkEdges)) // cur is preallocated at full cap
	return sb
}

func (sb *StreamBuilder) track(delta int64) {
	sb.tracked += delta
	if sb.tracked > sb.stats.PeakTrackedBytes {
		sb.stats.PeakTrackedBytes = sb.tracked
	}
}

// intern returns the dense id of the non-negative external id ext,
// assigning the next one if ext is new.
func (sb *StreamBuilder) intern(ext int64) (int32, error) {
	inTable := ext < int64(len(sb.table)) || sb.growTable(ext)
	if inTable {
		if id := sb.table[ext]; id != 0 {
			return id - 1, nil
		}
	} else if id, ok := sb.remap[ext]; ok {
		return id, nil
	}
	if len(sb.ext) >= 1<<31-1 {
		return 0, fmt.Errorf("graph: too many vertices for int32 ids")
	}
	id := int32(len(sb.ext))
	sb.ext = append(sb.ext, ext)
	sb.attrs = append(sb.attrs, AttrA)
	sb.track(bytesPerVertex)
	if inTable {
		sb.table[ext] = id + 1
	} else {
		sb.remap[ext] = id
		sb.track(bytesPerMapEntry)
	}
	return id, nil
}

// growTable doubles the id table until it covers ext, unless that
// would pass the cap, and moves every id of the map that the new table
// covers into it. It reports whether the table now covers ext.
func (sb *StreamBuilder) growTable(ext int64) bool {
	limit := remapSlotsPerVertex*int64(len(sb.ext)) + remapTableSlack
	if ext >= limit {
		return false
	}
	n := int64(1) << bits.Len64(uint64(ext)) // the least power of two > ext
	if n > limit {
		return false
	}
	table := make([]int32, n)
	copy(table, sb.table)
	sb.track(bytesPerTableSlot * n)
	for x, id := range sb.remap {
		if x < n {
			table[x] = id + 1
			delete(sb.remap, x)
			sb.track(-bytesPerMapEntry)
		}
	}
	sb.track(-bytesPerTableSlot * int64(len(sb.table)))
	sb.table = table
	return true
}

// SetAttr records the attribute of the external vertex id, interning it
// if unseen. Calling SetAttr before the vertex's first edge pins its
// dense id, so loading an attribute file ahead of the edge list yields
// the attribute file's vertex order.
func (sb *StreamBuilder) SetAttr(ext int64, a Attr) error {
	if sb.done {
		return fmt.Errorf("graph: StreamBuilder already built")
	}
	if ext < 0 {
		return fmt.Errorf("graph: negative vertex id %d", ext)
	}
	id, err := sb.intern(ext)
	if err != nil {
		return err
	}
	sb.attrs[id] = a
	return nil
}

// AddEdge streams one undirected edge. Self-loops are counted and
// dropped; duplicates (in either orientation) are deduplicated by the
// merges.
func (sb *StreamBuilder) AddEdge(u, v int64) error {
	if sb.done {
		return fmt.Errorf("graph: StreamBuilder already built")
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative vertex id in edge (%d, %d)", u, v)
	}
	if u == v {
		sb.stats.SelfLoops++
		// Interning keeps the vertex: a self-loop still names it.
		_, err := sb.intern(u)
		return err
	}
	du, err := sb.intern(u)
	if err != nil {
		return err
	}
	dv, err := sb.intern(v)
	if err != nil {
		return err
	}
	if du > dv {
		du, dv = dv, du
	}
	sb.cur = append(sb.cur, uint64(du)<<32|uint64(uint32(dv)))
	sb.stats.EdgesRead++
	if len(sb.cur) == cap(sb.cur) {
		return sb.seal()
	}
	return nil
}

// seal sorts the current chunk and moves it to the sealed set, spilling
// a merged run to disk when the in-memory budget is exceeded.
func (sb *StreamBuilder) seal() error {
	if len(sb.cur) == 0 {
		return nil
	}
	chunk := make([]uint64, len(sb.cur))
	copy(chunk, sb.cur)
	sb.cur = sb.cur[:0]
	slices.Sort(chunk)
	sb.mem = append(sb.mem, chunk)
	sb.memEdges += len(chunk)
	sb.track(int64(8 * len(chunk)))
	if sb.memEdges > sb.cfg.MaxMemEdges {
		return sb.spill()
	}
	return nil
}

// spill merges every sealed in-memory chunk into one sorted,
// deduplicated run on disk and releases the chunk memory.
func (sb *StreamBuilder) spill() error {
	f, err := os.CreateTemp(sb.cfg.SpillDir, "fairclique-spill-*.run")
	if err != nil {
		return fmt.Errorf("graph: spill: %w", err)
	}
	sb.track(spillBufBytes)
	m, err := newMerger(sb.mem, nil)
	var written int64
	if err == nil {
		written, err = writeRun(f, m)
		sb.stats.Duplicates += m.dups
	}
	sb.track(-spillBufBytes)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("graph: spill: %w", err)
	}
	for _, c := range sb.mem {
		sb.track(int64(-8 * len(c)))
	}
	sb.mem, sb.memEdges = nil, 0
	sb.runs = append(sb.runs, f)
	sb.stats.RunsSpilled++
	sb.stats.SpilledBytes += 8 * written
	return nil
}

// writeRun writes m's records to f as little-endian uint64s, one
// spillBufBytes block per write, and returns how many it wrote.
func writeRun(f *os.File, m *merger) (int64, error) {
	blk := make([]byte, 0, spillBufBytes)
	var written int64
	for v, ok := m.next(); ok; v, ok = m.next() {
		if len(blk) == cap(blk) {
			if _, err := f.Write(blk); err != nil {
				return written, err
			}
			blk = blk[:0]
		}
		blk = binary.LittleEndian.AppendUint64(blk, v)
		written++
	}
	if m.err != nil {
		return written, m.err
	}
	_, err := f.Write(blk)
	return written, err
}

// exhausted is the key of a merge source with no records left. No
// packed edge reaches it: both halves are non-negative int32 ids, so
// every record is below 1<<63.
const exhausted = math.MaxUint64

// mergeSource is one sorted stream of packed edges feeding a merger:
// a sealed in-memory chunk, or a spilled run decoded from a block
// buffer.
type mergeSource struct {
	recs []uint64 // the sealed chunk; nil for a run
	pos  int

	f      *os.File
	blk    []byte // the run's block buffer; blk[lo:hi] is not yet decoded
	lo, hi int
}

// fill moves the undecoded tail of the run's block to its front and
// reads the next block behind it. At the clean end of the run it
// leaves the block empty; a run that ends inside a record is an error.
func (s *mergeSource) fill() error {
	tail := copy(s.blk, s.blk[s.lo:s.hi])
	n, err := io.ReadAtLeast(s.f, s.blk[tail:], 8-tail)
	s.lo, s.hi = 0, tail+n
	switch {
	case err == nil || (err == io.EOF && tail == 0):
		return nil
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return fmt.Errorf("graph: truncated spill run")
	default:
		return fmt.Errorf("graph: merge: %w", err)
	}
}

// merger is a deduplicating k-way merge of sorted sources organised as
// a tournament (loser) tree. Source i is leaf k+i of an implicit binary
// tree whose node p has children 2p and 2p+1; tree[p], 1 ≤ p < k, holds
// the loser of the match played at node p, and tree[0] the overall
// winner, the source with the least head record. Taking a record
// advances only the winner, which then replays its own path to the
// root: ⌈log₂ k⌉ comparisons per record instead of a scan of all k.
type merger struct {
	srcs []mergeSource
	keys []uint64 // each source's head record, or exhausted
	tree []int32
	last uint64 // the last record returned; exhausted before the first
	dups int64  // records dropped as equal to the one before
	err  error
}

// newMerger merges the sealed chunks and the spilled runs, each read
// from its start.
func newMerger(chunks [][]uint64, runs []*os.File) (*merger, error) {
	m := &merger{last: exhausted}
	m.srcs = make([]mergeSource, 0, len(chunks)+len(runs)+1)
	for _, c := range chunks {
		m.srcs = append(m.srcs, mergeSource{recs: c})
	}
	blocks := make([]byte, spillBufBytes*len(runs))
	for i, f := range runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("graph: merge: %w", err)
		}
		m.srcs = append(m.srcs, mergeSource{f: f, blk: blocks[i*spillBufBytes : (i+1)*spillBufBytes]})
	}
	if len(m.srcs) == 0 {
		m.srcs = append(m.srcs, mergeSource{}) // an empty chunk ends the merge at once
	}
	k := len(m.srcs)
	m.keys = make([]uint64, k)
	for i := range m.srcs {
		if err := m.advance(i); err != nil {
			return nil, err
		}
	}
	m.tree = make([]int32, k)
	m.tree[0] = m.play(1)
	return m, nil
}

// play plays the matches of node p's subtree, storing each node's
// loser, and returns the subtree's winner.
func (m *merger) play(p int) int32 {
	k := len(m.srcs)
	if p >= k {
		return int32(p - k)
	}
	a, b := m.play(2*p), m.play(2*p+1)
	if m.keys[b] < m.keys[a] {
		a, b = b, a
	}
	m.tree[p] = b
	return a
}

// advance loads source i's next record, or exhausted, into keys[i].
func (m *merger) advance(i int) error {
	s := &m.srcs[i]
	if s.f == nil {
		if s.pos < len(s.recs) {
			m.keys[i] = s.recs[s.pos]
			s.pos++
		} else {
			m.keys[i] = exhausted
		}
		return nil
	}
	if s.hi-s.lo < 8 {
		if err := s.fill(); err != nil {
			return err
		}
		if s.hi == 0 {
			m.keys[i] = exhausted
			return nil
		}
	}
	m.keys[i] = binary.LittleEndian.Uint64(s.blk[s.lo:])
	s.lo += 8
	return nil
}

// next returns the least record not yet returned, skipping (and
// counting in dups) records equal to the previous one. ok is false at
// the end of the merge and on a read error, which is left in m.err.
func (m *merger) next() (rec uint64, ok bool) {
	k := len(m.srcs)
	for {
		w := m.tree[0]
		v := m.keys[w]
		if v == exhausted {
			return 0, false
		}
		if err := m.advance(int(w)); err != nil {
			m.err = err
			return 0, false
		}
		key := m.keys[w]
		for p := (int(w) + k) / 2; p > 0; p /= 2 {
			if o := m.tree[p]; m.keys[o] < key {
				m.tree[p], w, key = w, o, m.keys[o]
			}
		}
		m.tree[0] = w
		if v == m.last {
			m.dups++
			continue
		}
		m.last = v
		return v, true
	}
}

// maxEdges is the most edges a Graph holds: its 2m half-edges are
// indexed by int32.
const maxEdges = (1<<31 - 1) / 2

// Build finishes the stream and assembles the CSR graph: one merge of
// every sealed chunk and spilled run writes the canonical edge list,
// and fromSortedEdges places the CSR from it. The builder's spill
// files are removed and the builder cannot be reused. Stats are only
// meaningful after Build returns.
func (sb *StreamBuilder) Build() (*Graph, *StreamStats, error) {
	if sb.done {
		return nil, nil, fmt.Errorf("graph: StreamBuilder already built")
	}
	sb.done = true
	defer sb.cleanup()
	if err := sb.seal(); err != nil {
		return nil, nil, err
	}
	// cur is no longer needed: every edge is sealed. Neither is the
	// remap: every vertex is interned, and ext keeps the external ids.
	sb.cur = nil
	sb.track(int64(-8 * sb.cfg.ChunkEdges))
	sb.track(-bytesPerTableSlot*int64(len(sb.table)) - bytesPerMapEntry*int64(len(sb.remap)))
	sb.table, sb.remap = nil, nil

	n := len(sb.ext)
	if n == 0 {
		sb.stats.CSRBytes = 4
		g := &Graph{offsets: []int32{0}, attrs: []Attr{}}
		st := sb.stats
		return g, &st, nil
	}

	// The merge yields at most the records the spills' own dedup left.
	// Past maxEdges it only counts, for the error.
	bound := min(sb.stats.EdgesRead-sb.stats.Duplicates, maxEdges)
	edges := make([][2]int32, bound)
	blocks := int64(spillBufBytes * len(sb.runs))
	sb.track(8*bound + blocks)
	mg, err := newMerger(sb.mem, sb.runs)
	if err != nil {
		return nil, nil, err
	}
	var m int64
	for packed, ok := mg.next(); ok; packed, ok = mg.next() {
		if m < bound {
			edges[m] = [2]int32{int32(packed >> 32), int32(uint32(packed))}
		}
		m++
	}
	sb.track(-blocks)
	if mg.err != nil {
		return nil, nil, mg.err
	}
	sb.stats.Duplicates += mg.dups
	if m > maxEdges {
		return nil, nil, fmt.Errorf("graph: too many edges for int32 ids (%d)", m)
	}
	if m < bound {
		// Duplicates across runs left slack; the Graph keeps the list,
		// so it keeps it at its exact length.
		sb.track(8 * m)
		exact := make([][2]int32, m)
		copy(exact, edges)
		edges = exact
		sb.track(-8 * bound)
	}

	// fromSortedEdges allocates offsets, nbrs and eids, which the Graph
	// keeps, and one cursor per vertex, which it drops.
	sb.track(int64(4*(n+1)) + 16*m + int64(4*n))
	g := fromSortedEdges(sb.attrs, edges)
	sb.track(int64(-4 * n))
	sb.stats.Vertices = int32(n)
	sb.stats.Edges = m
	sb.stats.CSRBytes = int64(4*(n+1)) + 24*m + int64(n)
	st := sb.stats
	return g, &st, nil
}

// ExternalIDs returns the external id of each dense vertex (the remap
// table, in dense-id order). Valid after Build.
func (sb *StreamBuilder) ExternalIDs() []int64 { return sb.ext }

func (sb *StreamBuilder) cleanup() {
	for _, f := range sb.runs {
		name := f.Name()
		f.Close()
		os.Remove(name)
	}
	sb.runs = nil
	sb.mem, sb.memEdges = nil, 0
}
