package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fairclique/internal/rng"
)

// sameGraph asserts two graphs are structurally identical: sizes,
// canonical edge lists, adjacency and attributes.
func sameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("size mismatch: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for v := int32(0); v < want.N(); v++ {
		if got.Attr(v) != want.Attr(v) {
			t.Fatalf("attr mismatch at %d: got %v want %v", v, got.Attr(v), want.Attr(v))
		}
		gn, wn := got.Neighbors(v), want.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("degree mismatch at %d: got %d want %d", v, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("adjacency mismatch at %d[%d]: got %d want %d", v, i, gn[i], wn[i])
			}
		}
	}
	for e := int32(0); e < want.M(); e++ {
		gu, gv := got.Edge(e)
		wu, wv := want.Edge(e)
		if gu != wu || gv != wv {
			t.Fatalf("edge %d mismatch: got (%d,%d) want (%d,%d)", e, gu, gv, wu, wv)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("streamed graph invalid: %v", err)
	}
}

// TestStreamBuilderMatchesBuilder fuzzes noisy edge streams (duplicates,
// reversed orientations, self-loops) through the streaming builder at
// spill-forcing chunk sizes and checks the result is identical to the
// in-memory Builder's.
func TestStreamBuilderMatchesBuilder(t *testing.T) {
	cfgs := []StreamConfig{
		{},                                     // defaults: everything in memory
		{ChunkEdges: 8, MaxMemEdges: 16},       // many spilled runs
		{ChunkEdges: 64, MaxMemEdges: 1 << 20}, // many chunks, no spill
	}
	for trial := 0; trial < 20; trial++ {
		r := rng.New(uint64(9000 + trial))
		n := 5 + r.Intn(60)
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			if r.Bool(0.5) {
				b.SetAttr(int32(v), AttrB)
			}
		}
		type rec struct{ u, v int64 }
		var stream []rec
		for i := 0; i < 4*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(int32(u), int32(v))
			}
			stream = append(stream, rec{int64(u), int64(v)})
			if r.Bool(0.3) { // duplicate, possibly reversed
				stream = append(stream, rec{int64(v), int64(u)})
			}
		}
		want := b.Build()
		for ci, cfg := range cfgs {
			cfg.SpillDir = t.TempDir()
			sb := NewStreamBuilder(cfg)
			// Pin vertex order so dense ids match the Builder's.
			for v := 0; v < n; v++ {
				if err := sb.SetAttr(int64(v), want.Attr(int32(v))); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range stream {
				if err := sb.AddEdge(e.u, e.v); err != nil {
					t.Fatal(err)
				}
			}
			got, st, err := sb.Build()
			if err != nil {
				t.Fatalf("trial %d cfg %d: %v", trial, ci, err)
			}
			sameGraph(t, want, got)
			if st.Edges != int64(want.M()) || st.Vertices != want.N() {
				t.Fatalf("trial %d cfg %d: stats sizes %d/%d vs graph %d/%d",
					trial, ci, st.Vertices, st.Edges, want.N(), want.M())
			}
			if st.EdgesRead != st.Edges+st.Duplicates {
				t.Fatalf("trial %d cfg %d: read %d != edges %d + dups %d",
					trial, ci, st.EdgesRead, st.Edges, st.Duplicates)
			}
			if ents, _ := os.ReadDir(cfg.SpillDir); len(ents) != 0 {
				t.Fatalf("trial %d cfg %d: spill files left behind: %v", trial, ci, ents)
			}
		}
	}
}

func TestStreamBuilderSpillsAndTracks(t *testing.T) {
	dir := t.TempDir()
	sb := NewStreamBuilder(StreamConfig{ChunkEdges: 16, MaxMemEdges: 32, SpillDir: dir})
	r := rng.New(4242)
	n := 200
	for i := 0; i < 3000; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if err := sb.AddEdge(int64(u), int64(v)); err != nil {
			t.Fatal(err)
		}
	}
	g, st, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.RunsSpilled == 0 || st.SpilledBytes == 0 {
		t.Fatalf("expected spilled runs, got %+v", st)
	}
	if st.PeakTrackedBytes <= 0 || st.CSRBytes <= 0 {
		t.Fatalf("missing memory accounting: %+v", st)
	}
	wantCSR := int64(4*(g.N()+1)) + 24*int64(g.M()) + int64(g.N())
	if st.CSRBytes != wantCSR {
		t.Fatalf("CSRBytes = %d, want %d", st.CSRBytes, wantCSR)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBuilderRemapAndSelfLoops(t *testing.T) {
	sb := NewStreamBuilder(StreamConfig{SpillDir: t.TempDir()})
	// Non-contiguous external ids; first-seen order pins dense ids.
	if err := sb.AddEdge(1000, 7); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddEdge(7, 7); err != nil { // self-loop: dropped, vertex kept
		t.Fatal(err)
	}
	if err := sb.AddEdge(99, 1000); err != nil {
		t.Fatal(err)
	}
	if err := sb.SetAttr(99, AttrB); err != nil {
		t.Fatal(err)
	}
	g, st, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.SelfLoops != 1 {
		t.Fatalf("SelfLoops = %d, want 1", st.SelfLoops)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 3/2", g.N(), g.M())
	}
	ext := sb.ExternalIDs()
	if ext[0] != 1000 || ext[1] != 7 || ext[2] != 99 {
		t.Fatalf("remap order = %v, want [1000 7 99]", ext)
	}
	if g.Attr(2) != AttrB || g.Attr(0) != AttrA {
		t.Fatalf("attrs not remapped: %v %v", g.Attr(0), g.Attr(2))
	}
	if _, _, err := sb.Build(); err == nil {
		t.Fatal("second Build should fail")
	}
	if err := sb.AddEdge(1, 2); err == nil {
		t.Fatal("AddEdge after Build should fail")
	}
}

// snapEdgeCases is the edge-list loader-robustness table: every noisy
// input is either normalized or rejected with a line-numbered error.
// FuzzReadSNAP seeds its corpus with these inputs.
var snapEdgeCases = []struct {
	name    string
	in      string
	wantN   int32
	wantM   int64
	wantErr string // substring; "" means success
}{
	{"comments and blanks", "# header\n% also a comment\n\n1 2\n  \n2 3\n", 3, 2, ""},
	{"duplicate edges", "1 2\n1 2\n1\t2\n", 2, 1, ""},
	{"reversed duplicate", "1 2\n2 1\n", 2, 1, ""},
	{"self loop dropped", "5 5\n5 6\n", 2, 1, ""},
	{"non-contiguous ids", "1000000000000 7\n7 42\n", 3, 2, ""},
	{"tabs and padding", "\t 1 \t 2 \t\n", 2, 1, ""},
	{"truncated record", "1 2\n3\n", 0, 0, "line 2"},
	{"negative id", "1 2\n-3 4\n", 0, 0, "line 2"},
	{"non-numeric", "1 2\nfoo bar\n", 0, 0, "line 2"},
	{"three fields", "1 2 3\n", 0, 0, "line 1"},
	{"overflow id", "1 2\n99999999999999999999 3\n", 0, 0, "line 2"},
	// Overflows that wrap to a positive int64 must be caught too.
	{"overflow wraps positive", "1 2\n18446744073709551617 2\n", 0, 0, "line 2: vertex id overflows int64"},
	{"overflow wraps large", "19000000000000000000 1\n", 0, 0, "line 1: vertex id overflows int64"},
	{"max int64 plus one", "1 2\n9223372036854775808 1\n", 0, 0, "line 2: vertex id overflows int64"},
	{"max int64 id", "9223372036854775807 1\n", 2, 1, ""},
}

// TestReadSNAPEdgesTable runs the edge-list loader-robustness table.
func TestReadSNAPEdgesTable(t *testing.T) {
	for _, tc := range snapEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			sb := NewStreamBuilder(StreamConfig{SpillDir: t.TempDir()})
			err := ReadSNAPEdges(strings.NewReader(tc.in), sb)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := sb.Build()
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN || int64(g.M()) != tc.wantM {
				t.Fatalf("got n=%d m=%d, want n=%d m=%d", g.N(), g.M(), tc.wantN, tc.wantM)
			}
		})
	}
}

// snapAttrCases is the attribute-file loader-robustness table.
// FuzzReadSNAP seeds its corpus with these inputs too.
var snapAttrCases = []struct {
	name    string
	in      string
	wantErr string
}{
	{"ok", "# attrs\n0 a\n1 b\n2 0\n3 1\n", ""},
	{"repeated id last wins", "0 a\n0 b\n", ""},
	{"bad attr", "0 a\n1 x\n", "line 2"},
	{"missing attr", "0\n", "line 1"},
	{"negative id", "-1 a\n", "line 1"},
	{"trailing garbage", "0 a b\n", "line 1"},
	{"overflow wraps positive", "0 a\n18446744073709551617 b\n", "line 2: vertex id overflows int64"},
}

func TestReadSNAPAttrsTable(t *testing.T) {
	for _, tc := range snapAttrCases {
		t.Run(tc.name, func(t *testing.T) {
			sb := NewStreamBuilder(StreamConfig{SpillDir: t.TempDir()})
			err := ReadSNAPAttrs(strings.NewReader(tc.in), sb)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	// Last-wins semantics.
	sb := NewStreamBuilder(StreamConfig{SpillDir: t.TempDir()})
	if err := ReadSNAPAttrs(strings.NewReader("0 a\n0 b\n"), sb); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g, _, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Attr(0) != AttrB {
		t.Fatalf("repeated attr: got %v, want b", g.Attr(0))
	}
}

// TestSNAPRoundTrip writes a random graph as a SNAP pair and loads it
// back through the streaming path; attribute-file-first loading makes
// the round trip exact (identical dense ids).
func TestSNAPRoundTrip(t *testing.T) {
	r := rng.New(77)
	n := 80
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		if r.Bool(0.4) {
			b.SetAttr(int32(v), AttrB)
		}
	}
	for i := 0; i < 6*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.AddEdge(int32(u), int32(v))
		}
	}
	want := b.Build()

	dir := t.TempDir()
	edgePath := filepath.Join(dir, "g.snap")
	attrPath := filepath.Join(dir, "g.attrs")
	var eb, ab bytes.Buffer
	if err := WriteSNAP(&eb, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteSNAPAttrs(&ab, want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edgePath, eb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(attrPath, ab.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, st, err := LoadSNAP(edgePath, attrPath, StreamConfig{ChunkEdges: 32, MaxMemEdges: 64, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, want, got)
	if st.Duplicates != 0 || st.SelfLoops != 0 {
		t.Fatalf("canonical round trip should have no dups/loops: %+v", st)
	}
	// Error paths carry the file name.
	if err := os.WriteFile(edgePath, []byte("1 2\nbroken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadSNAP(edgePath, attrPath, StreamConfig{SpillDir: dir})
	if err == nil || !strings.Contains(err.Error(), "g.snap") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want file+line error, got %v", err)
	}
}

// TestStreamPeakUnderTwiceCSR exercises the headline claim at test
// scale: with a bounded in-memory edge budget the deterministic peak
// stays under 2x the final CSR bytes on a graph whose edge list
// wouldn't fit that budget.
func TestStreamPeakUnderTwiceCSR(t *testing.T) {
	r := rng.New(31337)
	n := 3000
	sb := NewStreamBuilder(StreamConfig{ChunkEdges: 1 << 10, MaxMemEdges: 1 << 12, SpillDir: t.TempDir()})
	for i := 0; i < 60000; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if err := sb.AddEdge(int64(u), int64(v)); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.RunsSpilled == 0 {
		t.Fatalf("instance too small to spill: %+v", st)
	}
	if ratio := float64(st.PeakTrackedBytes) / float64(st.CSRBytes); ratio >= 2.0 {
		t.Fatalf("peak/CSR ratio %.2f >= 2.0 (%+v)", ratio, st)
	}
}

// TestStreamCrossRunDuplicates streams every edge in both
// orientations, the second only after the first has spilled, so only
// Build's merge sees the duplicates and the merged list ends at half
// its bound. The graph must be Builder's, its edge list must hold no
// slack, and the peak must stay under twice the CSR, with the
// placement serial and split.
func TestStreamCrossRunDuplicates(t *testing.T) {
	want := randomGraph(t, 808, 3000, 0.0045)
	for _, cutoff := range []int{splitPlacementEdges, 0} {
		t.Run(fmt.Sprintf("split from %d edges", cutoff), func(t *testing.T) {
			setSplitPlacement(t, cutoff)
			cfg := StreamConfig{ChunkEdges: 1 << 10, MaxMemEdges: 1 << 12, SpillDir: t.TempDir()}
			if window := 5 * cfg.ChunkEdges; int(want.M()) < window {
				t.Fatalf("m=%d: an edge's two copies can share a %d-record spill", want.M(), window)
			}
			sb := NewStreamBuilder(cfg)
			for v := int32(0); v < want.N(); v++ {
				if err := sb.SetAttr(int64(v), want.Attr(v)); err != nil {
					t.Fatal(err)
				}
			}
			for _, flip := range []bool{false, true} {
				for _, e := range want.edges {
					u, v := int64(e[0]), int64(e[1])
					if flip {
						u, v = v, u
					}
					if err := sb.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			g, st, err := sb.Build()
			if err != nil {
				t.Fatal(err)
			}
			requireCSR(t, "streamed", g, want)
			if cap(g.edges) != len(g.edges) {
				t.Fatalf("edge list len %d cap %d: the merge bound's slack was kept", len(g.edges), cap(g.edges))
			}
			if st.RunsSpilled == 0 || st.Duplicates != int64(want.M()) || st.EdgesRead != st.Edges+st.Duplicates {
				t.Fatalf("stats %+v: want spilled runs, %d duplicates and read = edges + duplicates", st, want.M())
			}
			if st.PeakTrackedBytes >= 2*st.CSRBytes {
				t.Fatalf("peak %d B >= 2x CSR %d B", st.PeakTrackedBytes, st.CSRBytes)
			}
		})
	}
}

func TestStreamBuilderDeterministic(t *testing.T) {
	build := func() (*Graph, *StreamStats) {
		r := rng.New(555)
		sb := NewStreamBuilder(StreamConfig{ChunkEdges: 32, MaxMemEdges: 64, SpillDir: t.TempDir()})
		for i := 0; i < 2000; i++ {
			if err := sb.AddEdge(int64(r.Intn(150)), int64(r.Intn(150))); err != nil {
				t.Fatal(err)
			}
		}
		g, st, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}
	g1, st1 := build()
	g2, st2 := build()
	sameGraph(t, g1, g2)
	if fmt.Sprintf("%+v", st1) != fmt.Sprintf("%+v", st2) {
		t.Fatalf("stats not deterministic:\n%+v\n%+v", st1, st2)
	}
}

// setRemapSlack sets remapTableSlack for the rest of the test.
func setRemapSlack(tb testing.TB, slack int64) {
	tb.Helper()
	old := remapTableSlack
	remapTableSlack = slack
	tb.Cleanup(func() { remapTableSlack = old })
}

// streamOp is one call on a StreamBuilder: AddEdge(u, v), or
// SetAttr(u, a) when attr is set.
type streamOp struct {
	u, v int64
	attr bool
	a    Attr
}

// mapStreamRef is the map-only reference for a StreamBuilder: it
// interns through a Go map in first-seen order, builds the graph with
// Builder and derives every StreamStats field but PeakTrackedBytes,
// replaying the chunk/spill schedule to get the spill counts.
func mapStreamRef(cfg StreamConfig, ops []streamOp) (*Graph, []int64, StreamStats) {
	ids := map[int64]int32{}
	var ext []int64
	var attrs []Attr
	intern := func(x int64) int32 {
		id, ok := ids[x]
		if !ok {
			id = int32(len(ext))
			ids[x] = id
			ext = append(ext, x)
			attrs = append(attrs, AttrA)
		}
		return id
	}
	var st StreamStats
	var edges [][2]int32
	for _, op := range ops {
		switch {
		case op.attr:
			attrs[intern(op.u)] = op.a
		case op.u == op.v:
			intern(op.u)
			st.SelfLoops++
		default:
			u, v := intern(op.u), intern(op.v)
			edges = append(edges, [2]int32{min(u, v), max(u, v)})
		}
	}
	// Chunks of ChunkEdges are sealed in order; once more than
	// MaxMemEdges are sealed they spill as one deduplicated run.
	window, sealed, inChunk := map[[2]int32]bool{}, 0, 0
	seal := func() {
		sealed, inChunk = sealed+inChunk, 0
		if sealed > cfg.MaxMemEdges {
			st.RunsSpilled++
			st.SpilledBytes += 8 * int64(len(window))
			window, sealed = map[[2]int32]bool{}, 0
		}
	}
	for _, e := range edges {
		window[e] = true
		if inChunk++; inChunk == cfg.ChunkEdges {
			seal()
		}
	}
	if inChunk > 0 {
		seal()
	}
	b := NewBuilder(len(ext))
	for v, a := range attrs {
		b.SetAttr(int32(v), a)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	st.EdgesRead = int64(len(edges))
	st.Edges = int64(g.M())
	st.Duplicates = st.EdgesRead - st.Edges
	st.Vertices = g.N()
	st.CSRBytes = int64(4*(g.N()+1)) + 24*int64(g.M()) + int64(g.N())
	if g.N() == 0 {
		st.CSRBytes = 4
	}
	return g, ext, st
}

// applyOps applies ops to sb.
func applyOps(t *testing.T, sb *StreamBuilder, ops []streamOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.attr {
			err = sb.SetAttr(op.u, op.a)
		} else {
			err = sb.AddEdge(op.u, op.v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkAgainstMapRef asserts a build equals the map-only reference:
// the graph, ExternalIDs and every stat except PeakTrackedBytes.
func checkAgainstMapRef(t *testing.T, cfg StreamConfig, ops []streamOp, sb *StreamBuilder, g *Graph, st *StreamStats) {
	t.Helper()
	wantG, wantExt, wantSt := mapStreamRef(cfg, ops)
	sameGraph(t, wantG, g)
	if !slices.Equal(sb.ExternalIDs(), wantExt) {
		t.Fatalf("ExternalIDs = %v, want %v", sb.ExternalIDs(), wantExt)
	}
	got := *st
	got.PeakTrackedBytes = 0
	if got != wantSt {
		t.Fatalf("stats = %+v, want %+v", got, wantSt)
	}
}

// TestStreamRemapMatchesMapReference streams random mixes of small ids,
// ids just under, at and just over the id table's growth cap, ids up to
// math.MaxInt64 and attributes set before and between edges, and checks
// the result against the map-only reference. A small slack makes the
// cap bite within a few hundred vertices, so ids the map holds are
// later covered by a table growth and must move into the table.
func TestStreamRemapMatchesMapReference(t *testing.T) {
	setRemapSlack(t, 32)
	cfg := StreamConfig{ChunkEdges: 16, MaxMemEdges: 48, SpillDir: t.TempDir()}
	adopted := 0 // ids first held by the map that a later growth moved
	for trial := 0; trial < 60; trial++ {
		r := rng.New(uint64(7100 + trial))
		seen := map[int64]bool{}
		var mapHeld []int64
		id := func() int64 {
			limit := remapSlotsPerVertex*int64(len(seen)) + remapTableSlack
			var x int64
			switch r.Intn(6) {
			case 0:
				x = int64(r.Intn(40))
			case 1:
				x = limit - 1 + int64(r.Intn(3)) // just under, at, just over the cap
			case 2:
				x = math.MaxInt64 - int64(r.Intn(3))
			case 3:
				x = int64(r.Uint64() >> (1 + r.Intn(63)))
			default:
				x = int64(r.Intn(4000))
			}
			if !seen[x] {
				seen[x] = true
				if x >= limit {
					mapHeld = append(mapHeld, x)
				}
			}
			return x
		}
		var ops []streamOp
		if trial%3 == 0 { // attributes first pin the dense order
			for i := 0; i < 20; i++ {
				ops = append(ops, streamOp{u: id(), attr: true, a: Attr(r.Intn(2))})
			}
		}
		for i := 0; i < 50+r.Intn(400); i++ {
			if r.Bool(0.1) {
				ops = append(ops, streamOp{u: id(), attr: true, a: Attr(r.Intn(2))})
				continue
			}
			u := id()
			v := u
			if !r.Bool(0.05) {
				v = id()
			}
			ops = append(ops, streamOp{u: u, v: v})
			if r.Bool(0.2) {
				ops = append(ops, streamOp{u: v, v: u})
			}
		}
		sb := NewStreamBuilder(cfg)
		applyOps(t, sb, ops)
		for _, x := range mapHeld {
			if x < int64(len(sb.table)) {
				adopted++
			}
		}
		g, st, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstMapRef(t, cfg, ops, sb, g, st)
	}
	if adopted == 0 {
		t.Fatal("no id held by the map was ever covered by a table growth")
	}
}

// TestMergerTournament merges 1 to 20 sorted sources, in-memory chunks
// and spilled runs mixed, against sort-and-dedup of their union. The
// sources include empty ones, all-duplicate ones, duplicates across
// sources and runs longer than one block.
func TestMergerTournament(t *testing.T) {
	dir := t.TempDir()
	for k := 1; k <= 20; k++ {
		for trial := 0; trial < 4; trial++ {
			r := rng.New(uint64(100*k + trial))
			var chunks [][]uint64
			var runs []*os.File
			var all []uint64
			for i := 0; i < k; i++ {
				var src []uint64
				switch r.Intn(5) {
				case 0: // empty
				case 1: // one record repeated
					x := uint64(r.Intn(64))
					for j := 0; j <= r.Intn(40); j++ {
						src = append(src, x)
					}
				case 2: // longer than one spill block
					for j := 0; j < spillBufBytes/8+1+r.Intn(5000); j++ {
						src = append(src, uint64(r.Intn(20000)))
					}
				default:
					for j := 0; j < r.Intn(300); j++ {
						src = append(src, uint64(r.Intn(500))|uint64(r.Intn(2))<<62)
					}
				}
				slices.Sort(src)
				all = append(all, src...)
				if r.Bool(0.5) {
					chunks = append(chunks, src)
					continue
				}
				f, err := os.CreateTemp(dir, "run-*")
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var buf []byte
				for _, x := range src {
					buf = binary.LittleEndian.AppendUint64(buf, x)
				}
				if _, err := f.Write(buf); err != nil {
					t.Fatal(err)
				}
				runs = append(runs, f)
			}
			m, err := newMerger(chunks, runs)
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			for x, ok := m.next(); ok; x, ok = m.next() {
				got = append(got, x)
			}
			if m.err != nil {
				t.Fatal(m.err)
			}
			slices.Sort(all)
			want := slices.Compact(slices.Clone(all))
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d trial %d: merged %d records, want %d", k, trial, len(got), len(want))
			}
			if m.dups != int64(len(all)-len(want)) {
				t.Fatalf("k=%d trial %d: dups = %d, want %d", k, trial, m.dups, len(all)-len(want))
			}
		}
	}
}

// TestStreamMergeSources builds through every source count from 1 to
// 20 at Build time, all in memory or as spilled runs, on noisy, on
// all-duplicate and on repeated streams (duplicates spanning runs),
// and checks the graph against Builder's and the map-only reference.
func TestStreamMergeSources(t *testing.T) {
	const chunk = 8
	dir := t.TempDir()
	for sources := 1; sources <= 20; sources++ {
		for _, spilled := range []bool{false, true} {
			cfg := StreamConfig{ChunkEdges: chunk, MaxMemEdges: 1 << 20, SpillDir: dir}
			edges := sources * chunk
			if spilled {
				// Every second sealed chunk spills both as one run, so
				// an odd chunk count leaves one chunk in memory.
				cfg.MaxMemEdges = chunk
				edges = (2*sources - 1 + sources%2) * chunk
			}
			r := rng.New(uint64(31*sources) + 7)
			noisy := make([]streamOp, edges)
			allDup := make([]streamOp, edges)
			for i := range noisy {
				noisy[i] = streamOp{u: int64(r.Intn(30)), v: int64(r.Intn(30))}
				allDup[i] = streamOp{u: 3, v: 5}
				if i%2 == 1 {
					allDup[i] = streamOp{u: 5, v: 3}
				}
				if noisy[i].u == noisy[i].v {
					noisy[i].v = (noisy[i].u + 1) % 30
				}
			}
			half := noisy[:edges/2]
			repeated := append(slices.Clone(half), half...)
			for si, ops := range [][]streamOp{noisy, allDup, repeated} {
				sb := NewStreamBuilder(cfg)
				applyOps(t, sb, ops)
				if err := sb.seal(); err != nil {
					t.Fatal(err)
				}
				if got := len(sb.mem) + len(sb.runs); got != sources {
					t.Fatalf("sources=%d spilled=%v: builder holds %d sources", sources, spilled, got)
				}
				g, st, err := sb.Build()
				if err != nil {
					t.Fatal(err)
				}
				if st.EdgesRead != st.Edges+st.Duplicates {
					t.Fatalf("sources=%d spilled=%v stream %d: read %d != edges %d + dups %d",
						sources, spilled, si, st.EdgesRead, st.Edges, st.Duplicates)
				}
				checkAgainstMapRef(t, cfg, ops, sb, g, st)
			}
		}
	}
}

// TestBuildRejectsTruncatedRun cuts a spilled run inside a record, in
// its first block and in a later one, and expects Build to fail with
// the truncated-run error and still remove the spill files.
func TestBuildRejectsTruncatedRun(t *testing.T) {
	for _, cut := range []string{"first record", "last record"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			sb := NewStreamBuilder(StreamConfig{ChunkEdges: 4096, MaxMemEdges: 4096, SpillDir: dir})
			for i := 0; i < 3*4096; i++ {
				if err := sb.AddEdge(int64(i), int64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if len(sb.runs) == 0 {
				t.Fatal("nothing spilled")
			}
			run := sb.runs[0]
			info, err := run.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() <= spillBufBytes {
				t.Fatalf("run of %d bytes fits one block", info.Size())
			}
			size := int64(5)
			if cut == "last record" {
				size = info.Size() - 3
			}
			if err := run.Truncate(size); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sb.Build(); err == nil || !strings.Contains(err.Error(), "truncated spill run") {
				t.Fatalf("Build on a run cut to %d bytes: err = %v, want a truncated spill run", size, err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("spill files left behind: %v", ents)
			}
		})
	}
}
