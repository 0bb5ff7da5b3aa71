package reduce

import (
	"sync"

	"fairclique/internal/graph"
)

// Snapshot is one cached reduction result: the surviving subgraph with
// its vertex mapping back to the cache's original graph, plus the
// per-stage sizes of the pipeline run that produced it.
type Snapshot struct {
	// Sub is the reduced subgraph; Sub.ToParent maps its vertex ids to
	// the ORIGINAL graph the cache was built on, even when the snapshot
	// was chained off a previous one.
	Sub *graph.Subgraph
	// Stages holds the pipeline's per-stage sizes (relative to the
	// graph the pipeline actually ran on, which for chained snapshots
	// is the previous snapshot, not the original).
	Stages []StageStats
}

// CacheStats counts a cache's work, for the session layer's
// amortization accounting.
type CacheStats struct {
	// Builds is the number of pipeline runs executed.
	Builds int64
	// Hits is the number of Get calls answered from the cache.
	Hits int64
	// Chained is how many of the builds started from a smaller-k
	// snapshot instead of the original graph.
	Chained int64
}

// Cache memoizes reduction snapshots of one frozen graph, keyed by the
// size constraint k. It exploits the pipeline's monotonicity in k: a
// fair clique with both attribute counts >= k' also has counts >= k for
// every k <= k', so the reduction at k preserves it and the pipeline
// for k' may run on the (smaller) snapshot of any k < k' instead of the
// original graph. Get therefore chains each new build off the largest
// cached smaller k, which makes an ascending-k query grid pay the full
// O(α·|E|) triangle work only once.
//
// A Cache is safe for concurrent use; concurrent builds are serialized
// so each distinct k runs its pipeline exactly once.
type Cache struct {
	g       *graph.Graph
	workers int

	mu    sync.Mutex
	snaps map[int32]*Snapshot
	stats CacheStats
}

// NewCache prepares a snapshot cache over g. The graph must not be
// mutated afterwards.
func NewCache(g *graph.Graph) *Cache {
	return &Cache{g: g, snaps: make(map[int32]*Snapshot)}
}

// SetWorkers sets the worker bound the cache's pipeline runs fan
// components across (<= 1 means serial). The parallel path is
// bit-identical to the serial one, so this only affects wall-clock.
// Clones made by PatchedClone inherit the setting.
func (c *Cache) SetWorkers(w int) {
	c.mu.Lock()
	c.workers = w
	c.mu.Unlock()
}

// Get returns the reduction snapshot for size constraint k (k >= 1),
// building — and memoizing — it on first use.
func (c *Cache) Get(k int32) *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.snaps[k]; ok {
		c.stats.Hits++
		return s
	}
	// Chain off the largest cached smaller k: its snapshot retains
	// every fair clique with counts >= k, so reducing it at k is
	// equivalent for the search while touching far fewer edges.
	var baseK int32
	var base *Snapshot
	for bk, s := range c.snaps {
		if bk < k && (base == nil || bk > baseK) {
			baseK, base = bk, s
		}
	}
	c.stats.Builds++
	var snap *Snapshot
	if base == nil {
		sub, stages := PipelineN(c.g, k, c.workers)
		snap = &Snapshot{Sub: sub, Stages: stages}
	} else {
		c.stats.Chained++
		sub, stages := PipelineN(base.Sub.G, k, c.workers)
		sub.ToParent = chain(base.Sub.ToParent, sub.ToParent)
		snap = &Snapshot{Sub: sub, Stages: stages}
	}
	c.snaps[k] = snap
	return snap
}

// Stats returns a copy of the cache's work counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Cached returns the snapshot for k if one is already built, without
// running the pipeline or touching the hit counters (the session's
// Apply path uses it to re-prepare exactly the k values that exist).
func (c *Cache) Cached(k int32) (*Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.snaps[k]
	return s, ok
}
