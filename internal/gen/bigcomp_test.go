package gen

import (
	"testing"

	"fairclique/internal/graph"
)

// BigComponent must produce a single connected component of more than
// graph.ChunkBits (4096) vertices, with both attributes present, and be
// bit-for-bit reproducible for a given seed.
func TestBigComponentShape(t *testing.T) {
	g := BigComponent(7, 60, 0.5, graph.ChunkBits+100)
	if g.N() <= graph.ChunkBits {
		t.Fatalf("only %d vertices; want > %d", g.N(), graph.ChunkBits)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if comps := graph.ConnectedComponents(g); len(comps) != 1 {
		t.Fatalf("%d components, want 1", len(comps))
	}
	na, nb := g.AttrCount()
	if na == 0 || nb == 0 {
		t.Fatalf("attribute counts %d/%d; want both non-zero", na, nb)
	}

	h := BigComponent(7, 60, 0.5, graph.ChunkBits+100)
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("not deterministic: %d/%d vs %d/%d vertices/edges", g.N(), g.M(), h.N(), h.M())
	}
	for e := int32(0); e < g.M(); e++ {
		gu, gv := g.Edge(e)
		hu, hv := h.Edge(e)
		if gu != hu || gv != hv {
			t.Fatalf("edge %d differs across runs: (%d,%d) vs (%d,%d)", e, gu, gv, hu, hv)
		}
	}
	for v := int32(0); v < g.N(); v++ {
		if g.Attr(v) != h.Attr(v) {
			t.Fatalf("attr of %d differs across runs", v)
		}
	}
}

// Degenerate parameters are clamped rather than crashing.
func TestBigComponentClamps(t *testing.T) {
	g := BigComponent(1, 0, 0.9, 0)
	if g.N() < 6 {
		t.Fatalf("clamped instance too small: %d", g.N())
	}
	if comps := graph.ConnectedComponents(g); len(comps) != 1 {
		t.Fatalf("%d components, want 1", len(comps))
	}
}
