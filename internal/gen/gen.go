// Package gen builds the deterministic synthetic attributed graphs
// that stand in for the paper's datasets (Table I) and case-study
// graphs (Fig. 10). The real graphs (Themarker, Google, DBLP, Flixster,
// Pokec, Aminer) are not available offline, so each gets a generator
// reproducing its structural character at configurable scale:
//
//   - Themarker, Pokec and Flixster are power-law social networks:
//     Barabási–Albert graphs with 16, 20 and 6 edges per new vertex,
//     for dense, very dense and sparse.
//   - Google is a clustered web graph: a stochastic block model of
//     40-vertex blocks (edge probability 0.10 inside a block, 0.0006
//     between blocks).
//   - DBLP is co-authorship: overlapping teams (TeamGraph), whose
//     cliques are the teams.
//   - Aminer is co-authorship with a real-style gender attribute:
//     teams drawn around id-local centres (LocalTeamGraph) and an
//     attribute correlated with those id blocks (AssignByCommunity).
//
// The others get uniform attributes. Each stand-in then receives a
// planted family of fair cliques (one of the designed maximum size and
// decoys at 70% and 50% of it), so its maximum fair clique size is
// known, mirroring the clique structure of Fig. 8. The case-study
// graphs copy each Fig. 10 result's attribute split with synthetic
// vertex names, since the real rosters are not available either. All
// generators are seeded and produce identical graphs across runs and
// platforms.
package gen

import (
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

// ErdosRenyi returns G(n, m): n vertices and m uniformly random edges
// (duplicates redrawn), attributes unassigned (all AttrA).
func ErdosRenyi(seed uint64, n, m int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	seen := make(map[int64]bool, m)
	for added := 0; added < m && added < n*(n-1)/2; {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
		added++
	}
	return b.Build()
}

// BarabasiAlbert returns a preferential-attachment graph: each new
// vertex attaches to mPer existing vertices chosen proportionally to
// degree. Produces the heavy-tailed degree distributions of social
// networks (Themarker, Flixster, Pokec stand-ins).
func BarabasiAlbert(seed uint64, n, mPer int) *graph.Graph {
	if mPer < 1 {
		mPer = 1
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// Repeated-endpoint list: picking a uniform element is
	// degree-proportional sampling.
	targets := make([]int32, 0, 2*n*mPer)
	start := mPer + 1
	if start > n {
		start = n
	}
	// Seed clique among the first mPer+1 vertices.
	for u := 0; u < start; u++ {
		for v := u + 1; v < start; v++ {
			b.AddEdge(int32(u), int32(v))
			targets = append(targets, int32(u), int32(v))
		}
	}
	for v := start; v < n; v++ {
		chosen := map[int32]bool{}
		for len(chosen) < mPer {
			var t int32
			if len(targets) == 0 || r.Bool(0.05) {
				t = int32(r.Intn(v)) // occasional uniform jump keeps it connected-ish
			} else {
				t = targets[r.Intn(len(targets))]
			}
			if int(t) >= v || chosen[t] {
				continue
			}
			chosen[t] = true
		}
		// Map iteration order is randomized in Go; the pool order feeds
		// future draws, so make it deterministic.
		picked := make([]int32, 0, len(chosen))
		for t := range chosen {
			picked = append(picked, t)
		}
		insertionSortInt32(picked)
		for _, t := range picked {
			b.AddEdge(int32(v), t)
			targets = append(targets, int32(v), t)
		}
	}
	return b.Build()
}

// WattsStrogatz returns a small-world ring lattice: each vertex linked
// to its kHalf nearest neighbours on each side, each edge rewired with
// probability beta.
func WattsStrogatz(seed uint64, n, kHalf int, beta float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 1; d <= kHalf; d++ {
			w := (v + d) % n
			if r.Bool(beta) {
				w = r.Intn(n)
				if w == v {
					w = (v + d) % n
				}
			}
			b.AddEdge(int32(v), int32(w))
		}
	}
	return b.Build()
}

// TeamGraph models a collaboration network (DBLP / Aminer stand-ins):
// it samples nTeams author teams of geometric size and adds a clique
// per team, mirroring how co-authorship graphs arise from papers. The
// result is clique-dense with low degeneracy, the regime where the
// colorful-support reductions shine.
func TeamGraph(seed uint64, n, nTeams int, meanTeam float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	if meanTeam < 2 {
		meanTeam = 2
	}
	p := 1 / (meanTeam - 1)
	if p >= 1 {
		p = 0.99
	}
	// A light preferential pool makes some authors prolific.
	pool := make([]int32, 0, 4*nTeams)
	for t := 0; t < nTeams; t++ {
		size := 2 + r.Geometric(p)
		if size > 12 {
			size = 12
		}
		team := map[int32]bool{}
		for len(team) < size {
			var v int32
			if len(pool) > 0 && r.Bool(0.3) {
				v = pool[r.Intn(len(pool))]
			} else {
				v = int32(r.Intn(n))
			}
			team[v] = true
		}
		members := make([]int32, 0, size)
		for v := range team {
			members = append(members, v)
		}
		// Map iteration order is random in Go: sort for determinism.
		insertionSortInt32(members)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				b.AddEdge(members[i], members[j])
			}
			pool = append(pool, members[i])
		}
	}
	return b.Build()
}

// SBM returns a stochastic block model with the given community sizes:
// intra-community edges with probability pIn, inter with pOut. Models
// the clustered structure of web graphs (Google stand-in).
func SBM(seed uint64, sizes []int, pIn, pOut float64) *graph.Graph {
	r := rng.New(seed)
	total := 0
	for _, s := range sizes {
		total += s
	}
	b := graph.NewBuilder(total)
	community := make([]int, total)
	idx := 0
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			community[idx] = c
			idx++
		}
	}
	for u := 0; u < total; u++ {
		for v := u + 1; v < total; v++ {
			p := pOut
			if community[u] == community[v] {
				p = pIn
			}
			if p > 0 && r.Bool(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// Communities returns the community index of every vertex of an SBM
// with the given sizes (the assignment SBM used).
func Communities(sizes []int) []int {
	total := 0
	for _, s := range sizes {
		total += s
	}
	out := make([]int, total)
	idx := 0
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			out[idx] = c
			idx++
		}
	}
	return out
}

// PlantFairClique overlays a balanced clique of na + nb fresh-attribute
// vertices onto g, choosing the lowest-degree vertices so the plant is
// unambiguous. It returns the new graph and the planted vertex set.
// Used by tests and the effectiveness experiments to control ground
// truth.
func PlantFairClique(seed uint64, g *graph.Graph, na, nb int) (*graph.Graph, []int32) {
	r := rng.New(seed)
	n := int(g.N())
	want := na + nb
	if want > n {
		panic("gen: plant larger than graph")
	}
	// Choose distinct host vertices.
	hosts := r.Sample(n, want)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), g.Attr(int32(v)))
	}
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		b.AddEdge(u, v)
	}
	planted := make([]int32, 0, want)
	for i, h := range hosts {
		hv := int32(h)
		if i < na {
			b.SetAttr(hv, graph.AttrA)
		} else {
			b.SetAttr(hv, graph.AttrB)
		}
		planted = append(planted, hv)
	}
	for i := 0; i < len(planted); i++ {
		for j := i + 1; j < len(planted); j++ {
			b.AddEdge(planted[i], planted[j])
		}
	}
	return b.Build(), planted
}

func insertionSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
