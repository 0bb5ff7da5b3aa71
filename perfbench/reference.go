package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fairclique/internal/enum"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// cell is one (k, δ) query of the relative-fairness model.
type cell struct{ K, Delta int }

func (c cell) String() string { return fmt.Sprintf("%d,%d", c.K, c.Delta) }

// cells is the fixed query rotation of search-cold and serve-mixed.
// Cold k=2 cells branch ~1.5x the nodes of k=3 and k=4 cells, so op
// latencies form two clusters; four of the six cells are k=2 so that the
// median falls inside a cluster rather than in the gap between them.
var cells = []cell{{2, 4}, {2, 1}, {3, 2}, {2, 2}, {4, 3}, {2, 3}}

// bigcomp builds instance i of a run: the paper-style single giant
// component (a dense G(nucleus, 0.5) welded to a long
// attribute-alternating cycle shell), seeded from the run seed.
func bigcomp(cfg config, i int) *graph.Graph {
	return gen.BigComponent(cfg.Seed*16+uint64(i), cfg.Nucleus, 0.5, cfg.Shell)
}

// fingerprint hashes a graph's vertex count, attributes and adjacency
// (FNV-1a over 32-bit words): equal fingerprints mean identical CSR
// graphs for the purposes of this benchmark.
func fingerprint(g *graph.Graph) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint32) {
		h ^= uint64(x)
		h *= 1099511628211
	}
	mix(uint32(g.N()))
	mix(uint32(g.M()))
	for v := int32(0); v < g.N(); v++ {
		mix(uint32(g.Attr(v)))
		for _, u := range g.Neighbors(v) {
			mix(uint32(u))
		}
		mix(0xffffffff)
	}
	return h
}

// fairCapacity is the largest (k, δ)-fair subset of a clique holding na
// vertices of attribute a and nb of attribute b, or 0 if none exists.
// Every subset of a clique is a clique, so the optimum of a cell is the
// largest capacity over the maximal cliques.
func fairCapacity(na, nb int, c cell) int {
	lo, hi := min(na, nb), max(na, nb)
	if lo < c.K {
		return 0
	}
	return lo + min(hi, lo+c.Delta)
}

// optima is the reference optimum of every cell of one instance.
type optima map[string]int

// bkOptima computes the optimum of every cell in one Bron–Kerbosch pass
// over the maximal cliques (the internal/enum baseline): a path that
// shares no code with the reduction, the bounds or the branch loop.
func bkOptima(g *graph.Graph) optima {
	best := make([]int, len(cells))
	enum.MaximalCliques(g, func(c []int32) bool {
		na, nb := g.CountAttrs(c)
		for i, q := range cells {
			best[i] = max(best[i], fairCapacity(na, nb, q))
		}
		return true
	})
	out := make(optima, len(cells))
	for i, q := range cells {
		out[q.String()] = best[i]
	}
	return out
}

// refFile is the on-disk cache of one instance's reference optima,
// keyed by the instance's fingerprint so a changed generator can never
// be checked against a stale reference.
type refFile struct {
	Fingerprint uint64 `json:"fingerprint"`
	Optima      optima `json:"optima"`
}

// references returns the reference optima of the given instances,
// computing missing ones (two at a time) and caching them under
// cfg.DataDir. It runs before any timed region.
func references(cfg config, gs []*graph.Graph) ([]optima, error) {
	out := make([]optima, len(gs))
	errs := make([]error, len(gs))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = reference(cfg, i, g)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cfg.RefOffset != 0 {
		for _, o := range out {
			for k := range o {
				o[k] += cfg.RefOffset
			}
		}
	}
	return out, nil
}

// covers reports whether the cached file holds every cell of the rotation.
func (rf *refFile) covers() bool {
	for _, c := range cells {
		if _, ok := rf.Optima[c.String()]; !ok {
			return false
		}
	}
	return true
}

func reference(cfg config, i int, g *graph.Graph) (optima, error) {
	fp := fingerprint(g)
	path := filepath.Join(cfg.DataDir, "ref",
		fmt.Sprintf("bigcomp-n%d-s%d-seed%d.json", cfg.Nucleus, cfg.Shell, cfg.Seed*16+uint64(i)))
	if b, err := os.ReadFile(path); err == nil {
		var rf refFile
		if json.Unmarshal(b, &rf) == nil && rf.Fingerprint == fp && rf.covers() {
			return rf.Optima, nil
		}
	}
	rf := refFile{Fingerprint: fp, Optima: bkOptima(g)}
	b, err := json.Marshal(rf)
	if err != nil {
		return nil, err
	}
	if err := writeAtomic(path, b); err != nil {
		return nil, fmt.Errorf("cache reference: %w", err)
	}
	return rf.Optima, nil
}

// writeAtomic writes b to path through a rename, so a killed run never
// leaves a truncated cache file.
func writeAtomic(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// checkFair verifies, independently of the engine, that clique is a
// (k, δ)-fair clique of g of exactly the reference size want.
func checkFair(g *graph.Graph, clique []int32, c cell, want int) error {
	if len(clique) != want {
		return fmt.Errorf("cell (%v): size %d, reference optimum %d", c, len(clique), want)
	}
	if want == 0 {
		return nil // no fair clique exists, and none was reported
	}
	seen := make(map[int32]bool, len(clique))
	na, nb := 0, 0
	for i, v := range clique {
		if v < 0 || v >= g.N() || seen[v] {
			return fmt.Errorf("cell (%v): vertex %d out of range or repeated", c, v)
		}
		seen[v] = true
		if g.Attr(v) == graph.AttrA {
			na++
		} else {
			nb++
		}
		for _, u := range clique[:i] {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("cell (%v): %d and %d are not adjacent", c, u, v)
			}
		}
	}
	if na < c.K || nb < c.K || na-nb > c.Delta || nb-na > c.Delta {
		return fmt.Errorf("cell (%v): attribute counts %d/%d are not fair", c, na, nb)
	}
	return nil
}
