package serve

import (
	"errors"
	"strings"
	"testing"

	"fairclique"
)

func testEntry(t *testing.T, cfg Config) *GraphEntry {
	t.Helper()
	g, err := fairclique.ReadGraph(strings.NewReader(testGraphText))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRegistry(cfg.withDefaults()).Create("g", g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWriteBufferCoalesce checks the last-op-wins semantics: many raw
// ops on the same edge flush as one delta operation with the final
// state, and the whole buffer costs a single Session.Apply.
func TestWriteBufferCoalesce(t *testing.T) {
	e := testEntry(t, Config{})

	// add, del, add on the same absent edge (1,4): net insert.
	// del, add, del on the present edge (0,4): net delete.
	ops := []Op{
		{Kind: OpAddEdge, U: 1, V: 4},
		{Kind: OpDelEdge, U: 4, V: 1}, // either orientation coalesces
		{Kind: OpAddEdge, U: 1, V: 4},
		{Kind: OpDelEdge, U: 0, V: 4},
		{Kind: OpAddEdge, U: 0, V: 4},
		{Kind: OpDelEdge, U: 0, V: 4},
	}
	res, err := e.Mutate(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushes != 0 || res.BufferedOps != 6 {
		t.Fatalf("mutate = %+v; want 6 buffered raw ops, no flush", res)
	}
	d := e.buf.toDelta()
	if len(d.AddEdges) != 1 || len(d.DelEdges) != 1 {
		t.Fatalf("coalesced delta = %d adds, %d dels; want 1 and 1", len(d.AddEdges), len(d.DelEdges))
	}

	epoch, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || e.Flushes() != 1 {
		t.Fatalf("epoch %d after %d flushes; want 1 after 1 — the buffer must cost ONE Apply", epoch, e.Flushes())
	}
	st := e.Session().Stats()
	if st.Applies != 1 {
		t.Fatalf("session saw %d applies; want 1", st.Applies)
	}
	if e.Session().M() != 7 { // 7 - (0,4) + (1,4) = 7
		t.Fatalf("M = %d after coalesced flush; want 7", e.Session().M())
	}
}

// TestWriteBufferForcedFlush checks the two orderings a single batched
// delta cannot express: they must flush mid-batch, not misorder.
func TestWriteBufferForcedFlush(t *testing.T) {
	e := testEntry(t, Config{})

	// Delete vertex 4, then re-attach it: the edge add happens AFTER
	// the deletion dropped (0,4), so buffering both in one delta would
	// be contradictory. The entry must flush the deletion first.
	res, err := e.Mutate([]Op{
		{Kind: OpDelVertex, U: 4},
		{Kind: OpAddEdge, U: 4, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushes != 1 {
		t.Fatalf("del-vertex-then-add-edge forced %d flushes; want 1", res.Flushes)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	q := fairclique.QuerySpec{K: 1, Delta: 5}
	r, _, _, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// 4 lost (0,4) but gained (4,2): still attached.
	if e.Session().M() != 7 {
		t.Fatalf("M = %d; want 7 (pendant moved, not dropped)", e.Session().M())
	}
	if r.Size() == 0 {
		t.Fatal("query found nothing on the mutated graph")
	}

	// Buffered edge ops on a vertex, then its deletion: the edge ops
	// happened before, so they must land first — another forced flush.
	res, err = e.Mutate([]Op{
		{Kind: OpAddEdge, U: 4, V: 1},
		{Kind: OpDelVertex, U: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushes != 1 {
		t.Fatalf("edge-op-then-del-vertex forced %d flushes; want 1", res.Flushes)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Session().M() != 6 { // K4 edges only: 4 is isolated again
		t.Fatalf("M = %d; want 6 (vertex 4 isolated)", e.Session().M())
	}
}

// TestWriteBufferCap checks MaxBufferedOps forces a flush mid-batch.
func TestWriteBufferCap(t *testing.T) {
	e := testEntry(t, Config{MaxBufferedOps: 4})
	var ops []Op
	for i := 0; i < 10; i++ {
		kind := OpAddEdge
		if i%2 == 1 {
			kind = OpDelEdge
		}
		ops = append(ops, Op{Kind: kind, U: 1, V: 4})
	}
	res, err := e.Mutate(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushes == 0 {
		t.Fatal("10 ops with a cap of 4 never flushed")
	}
	if res.BufferedOps >= 4 {
		t.Fatalf("buffer holds %d ops; cap is 4", res.BufferedOps)
	}
}

// TestMutateDelEdgeBufferOnlyVertex: deleting an edge at a vertex that
// only exists in the buffer must stay flushable — a batched Delta
// cannot express DelEdges at a same-delta vertex, so the entry either
// cancels the buffered insertion or absorbs a no-op. Pre-fix, the
// buffered batch was acknowledged and the NEXT flush failed.
func TestMutateDelEdgeBufferOnlyVertex(t *testing.T) {
	e := testEntry(t, Config{})
	n := e.Session().N()

	// The review's reproducer: del-edge at the new vertex with no
	// buffered insertion — the edge cannot exist, a pure no-op.
	if _, err := e.Mutate([]Op{
		{Kind: OpAddEdge, U: 0, V: 1},
		{Kind: OpAddVertex, Attr: fairclique.AttrA},
		{Kind: OpDelEdge, U: 0, V: n},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatalf("flush after no-op del-edge at buffer-only vertex: %v", err)
	}
	if e.Session().N() != n+1 {
		t.Fatalf("N = %d; want %d", e.Session().N(), n+1)
	}

	// Add-then-delete on a buffer-only vertex cancels: the flush must
	// succeed and leave the new vertex isolated.
	m := e.Session().M()
	if _, err := e.Mutate([]Op{
		{Kind: OpAddVertex, Attr: fairclique.AttrB},
		{Kind: OpAddEdge, U: 0, V: n + 1},
		{Kind: OpDelEdge, U: n + 1, V: 0}, // either orientation cancels
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatalf("flush after cancelled insertion at buffer-only vertex: %v", err)
	}
	if e.Session().N() != n+2 || e.Session().M() != m {
		t.Fatalf("N=%d M=%d; want %d and %d (vertex added, edge cancelled)",
			e.Session().N(), e.Session().M(), n+2, m)
	}

	// Cancel-then-re-add keeps the last op: the edge must land.
	if _, err := e.Mutate([]Op{
		{Kind: OpAddVertex, Attr: fairclique.AttrB},
		{Kind: OpAddEdge, U: 0, V: n + 2},
		{Kind: OpDelEdge, U: 0, V: n + 2},
		{Kind: OpAddEdge, U: 0, V: n + 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Session().M() != m+1 {
		t.Fatalf("M = %d; want %d (re-added edge lands)", e.Session().M(), m+1)
	}
}

// TestMutateAtomicRejection: a batch with a bad op anywhere is rejected
// whole — ops preceding the bad one must not stay buffered, so the
// client knows a 400 means "nothing took effect".
func TestMutateAtomicRejection(t *testing.T) {
	e := testEntry(t, Config{})
	_, err := e.Mutate([]Op{
		{Kind: OpAddEdge, U: 1, V: 4},               // valid
		{Kind: OpAddVertex, Attr: fairclique.AttrA}, // valid
		{Kind: OpAddEdge, U: 0, V: 99},              // invalid: out of range
	})
	if err == nil {
		t.Fatal("batch with an out-of-range op was accepted")
	}
	if got := e.BufferedOps(); got != 0 {
		t.Fatalf("rejected batch left %d ops buffered; want 0", got)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Session().N() != 5 || e.Session().M() != 7 {
		t.Fatalf("N=%d M=%d after rejected batch; want the graph untouched (5, 7)",
			e.Session().N(), e.Session().M())
	}
}

// TestFlushFailureKeepsBuffer: if Apply ever fails (a server-side
// invariant break), the acknowledged buffer must survive for retry —
// not be silently discarded — and the error must carry ErrFlushFailed
// so handlers answer 5xx, not 400. The buffer is corrupted by hand
// because validation makes a real Apply failure unreachable.
func TestFlushFailureKeepsBuffer(t *testing.T) {
	e := testEntry(t, Config{})
	e.mu.Lock()
	e.buf.edges[[2]int{0, 999}] = false // out of range: Apply must reject
	e.buf.ops = 1
	e.mu.Unlock()

	if _, err := e.Flush(); !errors.Is(err, ErrFlushFailed) {
		t.Fatalf("Flush() = %v; want ErrFlushFailed", err)
	}
	if got := e.BufferedOps(); got != 1 {
		t.Fatalf("failed flush left %d buffered ops; want 1 (buffer retained)", got)
	}
	if _, _, _, err := e.Query(fairclique.QuerySpec{K: 1, Delta: 5}); !errors.Is(err, ErrFlushFailed) {
		t.Fatalf("Query over a stuck buffer = %v; want ErrFlushFailed", err)
	}

	// Clearing the corruption un-sticks the entry.
	e.mu.Lock()
	e.buf.reset()
	e.mu.Unlock()
	if _, _, _, err := e.Query(fairclique.QuerySpec{K: 1, Delta: 5}); err != nil {
		t.Fatalf("Query after clearing the buffer: %v", err)
	}
}

// TestMutateValidation: malformed ops are rejected before buffering,
// so one bad client cannot poison another's buffered work.
func TestMutateValidation(t *testing.T) {
	e := testEntry(t, Config{})
	for _, ops := range [][]Op{
		{{Kind: OpAddEdge, U: 0, V: 0}},
		{{Kind: OpAddEdge, U: 0, V: 99}},
		{{Kind: OpAddEdge, U: -1, V: 2}},
		{{Kind: OpDelVertex, U: 99}},
		{{Kind: OpKind(42)}},
	} {
		if _, err := e.Mutate(ops); err == nil {
			t.Errorf("Mutate(%+v) accepted a malformed op", ops)
		}
	}
	// New vertices are addressable within the same batch.
	res, err := e.Mutate([]Op{
		{Kind: OpAddVertex, Attr: fairclique.AttrB},
		{Kind: OpAddEdge, U: 5, V: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewVertexIDs) != 1 || res.NewVertexIDs[0] != 5 {
		t.Fatalf("new vertex ids = %v; want [5]", res.NewVertexIDs)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Session().N() != 6 || e.Session().M() != 8 {
		t.Fatalf("N=%d M=%d after vertex batch; want 6, 8", e.Session().N(), e.Session().M())
	}
}

// MaxCacheEntries bounds a graph's Find answers and enumeration sets
// together: once enumerations fill the cap, Find answers are served
// but not cached.
func TestCacheBoundCountsBothCaches(t *testing.T) {
	e := testEntry(t, Config{MaxCacheEntries: 2})
	for _, d := range []int{0, 1} {
		spec := fairclique.QuerySpec{K: 1, Delta: d, Kind: fairclique.KindEnumerateAll}
		if _, _, _, err := e.Enumerate(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []int{0, 1} {
		if _, _, _, err := e.Query(fairclique.QuerySpec{K: 2, Delta: d}); err != nil {
			t.Fatal(err)
		}
	}
	e.cacheMu.Lock()
	answers, sets := len(e.cache), len(e.ecache)
	e.cacheMu.Unlock()
	if answers+sets > 2 {
		t.Fatalf("caches hold %d answers + %d sets; MaxCacheEntries is 2", answers, sets)
	}
	res, cached, _, err := e.Query(fairclique.QuerySpec{K: 2, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if cached || res.Size() != 4 {
		t.Fatalf("repeat query past the cap: cached=%v size %d; want an uncached 4", cached, res.Size())
	}
}
