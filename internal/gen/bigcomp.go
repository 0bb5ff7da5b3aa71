package gen

import (
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

// BigComponent builds a deterministic single connected component that
// crosses the engine's old 4096-vertex bitset cap: a dense G(core, p)
// nucleus — the actual branch-and-bound workload, with uniformly random
// attributes — welded by one bridge edge to an attribute-alternating
// cycle shell of the given length. The shell inflates the component's
// vertex count (and therefore the candidate-row width) without adding
// meaningful search work, which is exactly the regime where the old
// engine silently degraded to the slice fallback.
//
// The nucleus density is bumped until the nucleus alone is connected,
// so the result is always one component of core+shell vertices.
func BigComponent(seed uint64, core int, coreP float64, shell int) *graph.Graph {
	if core < 3 {
		core = 3
	}
	if shell < 3 {
		shell = 3
	}
	p := coreP
	for {
		r := rng.New(seed)
		b := graph.NewBuilder(core + shell)
		for v := 0; v < core; v++ {
			b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
		}
		for u := 0; u < core; u++ {
			for v := u + 1; v < core; v++ {
				if r.Bool(p) {
					b.AddEdge(int32(u), int32(v))
				}
			}
		}
		// Attribute-alternating cycle: every shell vertex sits in a
		// trivially fair 2-clique with each neighbour, so the shell is
		// searchable but cheap.
		for i := 0; i < shell; i++ {
			v := int32(core + i)
			b.SetAttr(v, graph.Attr(i%2))
			if i > 0 {
				b.AddEdge(v-1, v)
			}
		}
		b.AddEdge(int32(core), int32(core+shell-1))
		b.AddEdge(0, int32(core)) // bridge nucleus <-> shell
		g := b.Build()
		if len(graph.ConnectedComponents(g)) == 1 {
			return g
		}
		p += 0.05 // nucleus not connected at this density; densify and retry
	}
}

// BigComponentGiant is the canonical engine-benchmark instance: the
// single definition shared by BENCH_core.json (internal/bench) and the
// per-root-vs-slice comparison benchmark in internal/core, so the two
// always measure the same graph. The nucleus scales with scale; the
// cycle shell is fixed at graph.ChunkBits+1024 vertices so the instance
// is too large for one flat row table at every scale.
func BigComponentGiant(scale float64) *graph.Graph {
	nucleus := int(230 * scale)
	if nucleus < 40 {
		nucleus = 40
	}
	return BigComponent(20260729, nucleus, 0.5, graph.ChunkBits+1024)
}

// HubFan builds one a-vertex (id 0) adjacent to every vertex of t
// disjoint triangles of one a- and two b-vertices, so the hub and each
// triangle form a balanced K4. The hub's degree is 3t, the whole graph:
// the fixture for work that must not cost a hub's degree once per
// incident edge or per subproblem.
func HubFan(t int) *graph.Graph {
	b := graph.NewBuilder(1 + 3*t)
	b.SetAttr(0, graph.AttrA)
	for i := 0; i < t; i++ {
		x := int32(1 + 3*i)
		b.SetAttr(x, graph.AttrA)
		b.SetAttr(x+1, graph.AttrB)
		b.SetAttr(x+2, graph.AttrB)
		b.AddEdge(x, x+1)
		b.AddEdge(x, x+2)
		b.AddEdge(x+1, x+2)
		for v := x; v < x+3; v++ {
			b.AddEdge(0, v)
		}
	}
	return b.Build()
}
