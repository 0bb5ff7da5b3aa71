// Package session implements the multi-query engine: a Session holds
// one attributed graph and answers an arbitrary stream — or grid — of
// maximum-fair-clique queries (k, δ) against it, amortizing everything
// that is query-independent and letting queries warm-start each other.
// Since the dynamic-sessions refactor the graph is no longer frozen
// forever: Apply mutates it with a batched delta and invalidates only
// the state the delta actually touches.
//
// What is shared, and at which level:
//
//   - Reductions: one entry per distinct k holds the reduced subgraph
//     and the core.Prepared built over it — the connected components,
//     their peel-rank relabeling, the chunked successor masks, attribute
//     histograms and recycled worker arenas — built once and shared by
//     every query, including concurrent ones, at that k. The pipeline
//     run for k reduces the subgraph of the largest smaller k already
//     built instead of the original graph.
//   - Incumbent warm-starts: every exact answer (and its clique) is
//     pooled. A new query (k, δ) is seeded with the largest pooled
//     clique that is itself (k, δ)-fair, and bounded above through the
//     monotonicity lattice (internal/bounds.GridTable): opt(k, δ) <=
//     opt(k', δ') whenever k' <= k and δ' >= δ. When the two meet, the
//     query is answered with zero branching; otherwise the bound
//     becomes core.Options.StopAtSize so the search stops the moment it
//     proves optimality.
//
// # Epochs and component-scoped invalidation
//
// All of that state hangs off an immutable *epoch*. Queries load the
// current epoch once (a single atomic pointer read) and run entirely
// against it; Apply builds the NEXT epoch beside the live one —
// copy-on-invalidate, no stop-the-world — and swaps the pointer when
// it is complete. In-flight queries race-freely finish on the epoch
// they started on (their answers describe the pre-delta graph); new
// queries see the new epoch. Vertex ids are stable across epochs
// (deletion isolates, insertion appends), so cliques, seeds and
// mappings never need translation.
//
// Apply invalidates only what the delta touches:
//
//   - Per-k reduced subgraphs are patched component-locally
//     (reduce.Patch): a subgraph the delta cannot change is kept by
//     pointer together with its Prepared; otherwise components free of
//     delta endpoints are retained, and the rest are re-peeled
//     (delete-only deltas) or re-reduced together with the inserted
//     edges' common neighborhoods.
//   - A patched subgraph is re-prepared incrementally
//     (core.PrepareIncremental): structurally unchanged components
//     adopt the previous epoch's relabeling, successor masks and
//     arenas; merged, split or touched components rebuild lazily.
//   - The clique pool keeps every clique that still is one in the new
//     graph (deletions kill witnesses; insertions never do).
//   - The monotonicity table survives as upper bounds: a new clique
//     must use an inserted edge (u, v) and hence fits inside
//     {u, v} ∪ (N(u) ∩ N(v)), so every cell is relaxed to at least
//     floor = max 2 + |N(u) ∩ N(v)| and stays safe
//     (bounds.GridTable.Relax). A requery whose retained seed meets
//     the relaxed bound is still answered with zero branching.
//
// Grid queries (FindGrid) are scheduled k-ascending, δ-descending —
// the order that maximizes both chains: weak cells solve first and
// bound/seed the strict ones — and driven strictly in that order by
// the calling goroutine (cell-level concurrency is a measured net loss
// — a stricter cell started before the looser cell that bounds it
// branches a full tree instead of dominance-skipping). Parallelism
// lives inside each search: with Workers > 1 every Find, grid cell,
// Enumerate and post-Apply requery runs core's private root split
// (core.Options.Workers): its workers pull root branches from one
// cursor, and all of them return before the query does, a
// budget-aborted one included. A dominance-skipped cell starts none.
package session

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/graph"
	"fairclique/internal/reduce"
)

// Options is the per-session configuration shared by every query. The
// per-query knobs (k, δ) live in Query.
type Options struct {
	// UseBounds applies the advanced bound group plus Extra.
	UseBounds bool
	// Extra selects the additional Table II bound.
	Extra bounds.Extra
	// UseHeuristic seeds cold queries with HeurRFC. Warm queries (with
	// a pooled seed) skip the heuristic: a previous exact answer is at
	// least as good a lower bound.
	UseHeuristic bool
	// SkipReduction disables the reduction pipeline (ablation); all
	// queries then share a single prepared view of the raw graph.
	SkipReduction bool
	// MaxNodes caps the branch nodes of each individual query (0 =
	// unlimited). Aborted queries stay out of the monotonicity table.
	MaxNodes int64
	// Workers is the branching parallelism of each query: every
	// search splits it privately (core.Options.Workers), and FindGrid
	// drives its cells one after another in chain order, each cell on
	// the whole budget. The reduction fans components across the same
	// bound.
	Workers int
}

// Query is one (k, δ) cell. Strong fairness is δ = 0; weak fairness
// (no balance constraint) is requested with Weak, which resolves δ to
// the CURRENT vertex count at query time — callers of a dynamic
// session should prefer it over passing δ = n themselves.
type Query struct {
	K, Delta int32
	Weak     bool

	// Kind selects the query shape: KindFind (the zero value) answers
	// with one maximum fair clique via Find/FindGrid; KindEnumerateAll
	// and KindTopR are answered by Enumerate with every maximum fair
	// clique, respectively a diversified r-subset of them.
	Kind QueryKind
	// R is the result budget for KindTopR (ignored otherwise).
	R int

	// Deadline, when non-zero, makes this query anytime: the search
	// stops at the wall-clock budget and the result carries the best
	// incumbent plus a certified upper bound (core.Result.UpperBound).
	// Inexact answers never enter the monotonicity table or the
	// warm-start pool.
	Deadline time.Time
	// MaxNodes caps this query's branch nodes (0 = no per-query cap);
	// combined with the session-wide Options.MaxNodes the tighter cap
	// wins. Like Deadline, a tripped cap yields an inexact answer with
	// a certified upper bound.
	MaxNodes int64
}

// Stats aggregates the work of every query answered so far.
type Stats struct {
	// Queries is the number of cells answered: Find calls and FindGrid
	// cells, plus every enumeration that ran a collect search (an
	// Enumerate call, or a cached set an Apply re-enumerated).
	// Enumerate calls answered from the enumeration cache are not
	// counted.
	Queries int64
	// Nodes, BoundChecks and BoundPrunes sum the corresponding
	// per-query search stats.
	Nodes, BoundChecks, BoundPrunes int64
	// ReductionBuilds counts reduction pipeline runs; ReductionChained
	// is how many of them started from a smaller-k snapshot instead of
	// the original graph.
	ReductionBuilds, ReductionChained int64
	// ReductionReuses counts queries that were answered on an
	// already-prepared reduction (no pipeline run, no mask rebuild).
	ReductionReuses int64
	// WarmStarts counts queries whose incumbent was seeded from the
	// clique pool; DominanceSkips counts queries answered with zero
	// branching because the seed met the monotonicity bound (or the
	// bound proved no clique exists).
	WarmStarts, DominanceSkips int64
	// Applies counts graph deltas applied; Epoch is the current epoch
	// id (0 before the first Apply).
	Applies, Epoch int64
	// SnapshotsPatched and SnapshotsReused count per-k reduced
	// subgraphs that an Apply re-reduced on their dirty region versus
	// kept by pointer; SnapshotsRippled counts ones a delete-only delta
	// re-peeled at the fairness floor (no pipeline run).
	SnapshotsPatched, SnapshotsReused int64
	SnapshotsRippled                  int64
	// CompPrepsReused counts per-component prepared machinery
	// (relabeling, successor masks, arenas) adopted across an Apply
	// instead of being rebuilt — the component-scoped invalidation
	// receipt.
	CompPrepsReused int64
	// PoolRetained and PoolDropped count warm-start cliques that
	// survived an Apply versus ones its deletions destroyed.
	PoolRetained, PoolDropped int64
	// Steals, WorkerReleases and PoolSearches are always 0.
	//
	// Deprecated: the session-lifetime worker pool they counted was
	// removed; every parallel search runs core's private root split.
	// The fields stay because the benchmark harness
	// (perfbench/layers.go, whose files define the benchmark) reads
	// them.
	Steals, WorkerReleases, PoolSearches int64
	// SpeculativeStarts and SpeculativeWins are always 0.
	//
	// Deprecated: grid speculation was removed because it never paid
	// for itself. The fields stay because the benchmark harness
	// (perfbench/layers.go, whose files define the benchmark) reads
	// both.
	SpeculativeStarts, SpeculativeWins int64
	// Enumerations counts collect searches: Enumerate calls the epoch's
	// enumeration cache did not answer, and cached sets an Apply
	// re-enumerated; EnumCacheHits counts Enumerate calls the cache
	// answered; EnumMaintained/EnumRecomputed count cached sets an Apply
	// carried forward by survivor filtering vs re-enumerated from
	// scratch.
	Enumerations, EnumCacheHits    int64
	EnumMaintained, EnumRecomputed int64
	// BoundInjections/SeedInjections count live broadcasts: when a
	// cell's exact answer lands, its size is pushed as a trusted bound
	// into every still-running search of a dominated cell and its
	// clique as an incumbent into every search it is valid for —
	// reaching searches that started before the answer existed, not
	// only future ones.
	BoundInjections, SeedInjections int64
}

// poolClique is one discovered fair clique, kept as warm-start
// material: clique A seeds any query (k, δ) with k <= min(na, nb) and
// δ >= |na - nb|.
type poolClique struct {
	verts  []int32 // original graph ids; immutable once pooled
	na, nb int32
	diff   int32 // |na - nb|
}

// kEntry is one k's reduction on an epoch: the reduced subgraph (sub,
// ToParent in the graph's ids) and the core.Prepared over it, built
// exactly once without holding the epoch lock across the build. done
// is set after both fields are, so Apply and chained builds can see
// whether the build finished without racing one in flight.
type kEntry struct {
	once sync.Once
	sub  *graph.Subgraph
	p    *core.Prepared
	done atomic.Bool
}

// epoch is one immutable-graph generation of the session: the graph,
// its per-k reductions, and the cross-query warm-start material.
// Queries operate on exactly one epoch; Apply replaces the session's
// current epoch wholesale.
type epoch struct {
	id int64
	g  *graph.Graph

	mu sync.Mutex
	// ks holds the per-k reductions; with SkipReduction every k shares
	// the entry keyed 0, a view of the whole graph.
	ks    map[int32]*kEntry
	table bounds.GridTable
	pool  []poolClique
	// enums caches exact enumeration answers per cell; Apply maintains
	// them incrementally across epochs (see enumerate.go). Values are
	// immutable once stored.
	enums map[enumKey]*enumSet
}

// Session is a prepared multi-query engine over one mutable graph. It
// is safe for concurrent use, including queries racing an Apply. A
// Session owns no goroutine: every goroutine a query starts has
// returned when the query does.
type Session struct {
	opt Options

	cur     atomic.Pointer[epoch]
	applyMu sync.Mutex // serializes Apply

	mu    sync.Mutex // guards stats
	stats Stats

	// running registers every search currently branching, keyed by its
	// live-injection handle, so a finishing cell can broadcast its
	// proven bound and incumbent into them (see broadcast).
	runMu   sync.Mutex
	running map[*runningSearch]struct{}
}

// runningSearch is one in-flight search's entry in the live-injection
// registry: its resolved query, the epoch it answers about, and the
// Injector wired into its core.Options.
type runningSearch struct {
	q     Query // Weak already resolved to a concrete Delta
	epoch int64
	inj   *core.Injector
}

// New wraps g in a session. The caller must not mutate g afterwards
// except through Apply.
func New(g *graph.Graph, opt Options) *Session {
	s := &Session{opt: opt}
	s.cur.Store(&epoch{g: g, ks: make(map[int32]*kEntry)})
	return s
}

// Graph returns the graph the session currently answers queries about
// (the latest epoch's).
func (s *Session) Graph() *graph.Graph { return s.cur.Load().g }

// Close does nothing: a Session holds no goroutine or other resource
// between queries. It stays because callers, the benchmark harness
// among them, still call it.
func (s *Session) Close() {}

// validate rejects malformed queries before any state is touched.
func validate(q Query) error {
	if q.K < 1 {
		return fmt.Errorf("session: K must be >= 1, got %d", q.K)
	}
	if q.Delta < 0 && !q.Weak {
		return fmt.Errorf("session: Delta must be >= 0, got %d", q.Delta)
	}
	if q.MaxNodes < 0 {
		return fmt.Errorf("session: MaxNodes must be >= 0, got %d", q.MaxNodes)
	}
	return nil
}

// Find answers a single query, reusing everything previous queries
// built.
func (s *Session) Find(q Query) (*core.Result, error) {
	if err := validate(q); err != nil {
		return nil, err
	}
	if q.Kind != KindFind {
		return nil, fmt.Errorf("session: Find answers KindFind queries; use Enumerate for Kind %d", q.Kind)
	}
	return s.find(q)
}

// FindGrid answers a batch of cells and returns results aligned with
// qs. Cells are scheduled k-ascending then δ-descending so each solved
// cell bounds and seeds the stricter ones, and driven strictly in that
// order by the calling goroutine; each cell's search splits the whole
// Workers budget, so the dominance chain stays intact. Every cell gets
// its own incumbent; the shared monotonicity table and clique pool are
// read at cell start.
func (s *Session) FindGrid(qs []Query) ([]*core.Result, error) {
	for _, q := range qs {
		if err := validate(q); err != nil {
			return nil, err
		}
		if q.Kind != KindFind {
			return nil, fmt.Errorf("session: FindGrid answers KindFind queries; use Enumerate for Kind %d", q.Kind)
		}
	}
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		qa, qb := qs[order[a]], qs[order[b]]
		if qa.K != qb.K {
			return qa.K < qb.K
		}
		da, db := qa.Delta, qb.Delta
		if qa.Weak {
			da = int32(1) << 30 // weak sorts loosest
		}
		if qb.Weak {
			db = int32(1) << 30
		}
		return da > db
	})

	// Cells run strictly in chain order: measurements on the
	// bigcomp-giant grid showed that running cells concurrently costs
	// 2.4x the branch nodes on a strong chain, because a stricter cell
	// that starts before the looser cell that would bound and seed it
	// branches a full tree instead of dominance-skipping.
	results := make([]*core.Result, len(qs))
	errs := make([]error, len(qs))
	for _, i := range order {
		results[i], errs[i] = s.find(qs[i])
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Stats returns a copy of the session's aggregated counters, including
// the reduction work of every epoch so far.
func (s *Session) Stats() Stats {
	e := s.cur.Load()
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Epoch = e.id
	return st
}

// find is the per-cell engine: monotonicity skip, warm-started search,
// result registration. The epoch is loaded exactly once; everything —
// bound lookup, prepared state, result registration — happens against
// it, so a concurrent Apply never mixes two graphs inside one query.
func (s *Session) find(q Query) (*core.Result, error) {
	e := s.cur.Load()
	if q.Weak {
		q.Delta = e.g.N() // no balance constraint at this epoch's size
	}

	e.mu.Lock()
	ub, haveUB := e.table.UpperBound(q.K, q.Delta)
	seed := bestSeedLocked(e, q)
	e.mu.Unlock()
	s.mu.Lock()
	s.stats.Queries++
	s.mu.Unlock()

	if haveUB {
		if ub < 2*q.K {
			// Every (k, δ)-fair clique has at least 2k vertices, so the
			// inherited bound proves this cell empty without branching.
			s.recordSkip(e, q, 0)
			return &core.Result{}, nil
		}
		if seed != nil && int32(len(seed)) == ub {
			// The pooled clique meets the inherited upper bound: it IS
			// a maximum fair clique for this cell.
			s.recordSkip(e, q, ub)
			return &core.Result{Clique: append([]int32(nil), seed...), UpperBound: ub}, nil
		}
	}

	// Register in the live-injection registry for the lifetime of the
	// search: concurrently finishing cells push proven bounds and valid
	// incumbents straight into it (broadcast), instead of only seeding
	// searches that start later.
	shape := core.Options{Injector: core.NewInjector()}
	if haveUB {
		shape.StopAtSize = int(ub)
	}
	rs := &runningSearch{q: q, epoch: e.id, inj: shape.Injector}
	s.runMu.Lock()
	if s.running == nil {
		s.running = make(map[*runningSearch]struct{})
	}
	s.running[rs] = struct{}{}
	s.runMu.Unlock()
	res, err := s.search(e, q, seed, shape)
	s.runMu.Lock()
	delete(s.running, rs)
	s.runMu.Unlock()
	if err != nil {
		return nil, err
	}
	// Aborted (MaxNodes-capped) answers are inexact: they must enter
	// neither the monotonicity table nor the warm-start pool (the
	// documented contract — a capped answer is never reused). Note the
	// registration goes to the query's own epoch: an answer computed on
	// a pre-delta graph must never bound post-delta queries.
	if !res.Stats.Aborted {
		e.mu.Lock()
		e.table.Add(q.K, q.Delta, int32(res.Size()))
		if res.Clique != nil {
			addPoolLocked(e, res.Clique)
		}
		e.mu.Unlock()
		s.broadcast(e, q, res)
	}
	return res, nil
}

// search runs q's branch-and-bound on epoch e over the prepared
// machinery for q.K. shape carries the query-shape options (StopAtSize,
// CollectAll, Injector); search fills in the rest from the session and
// the query — the bound and worker settings, the heuristic for cold
// (unseeded) queries only, the deadline and the tighter of the
// session-wide and per-query node caps — and folds the search's effort
// into the session counters.
func (s *Session) search(e *epoch, q Query, seed []int32, shape core.Options) (*core.Result, error) {
	opt := shape
	opt.K, opt.Delta = int(q.K), int(q.Delta)
	opt.UseBounds, opt.Extra, opt.Workers = s.opt.UseBounds, s.opt.Extra, s.opt.Workers
	opt.UseHeuristic = s.opt.UseHeuristic && seed == nil
	opt.Deadline = q.Deadline
	opt.MaxNodes = s.opt.MaxNodes
	if q.MaxNodes > 0 && (opt.MaxNodes == 0 || q.MaxNodes < opt.MaxNodes) {
		opt.MaxNodes = q.MaxNodes
	}
	res, err := s.prepared(e, q.K).Search(opt, seed)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Nodes += res.Stats.Nodes
	s.stats.BoundChecks += res.Stats.BoundChecks
	s.stats.BoundPrunes += res.Stats.BoundPrunes
	if seed != nil {
		s.stats.WarmStarts++
	}
	s.mu.Unlock()
	return res, nil
}

// broadcast pushes a fresh exact answer into every search still running
// on the same epoch: by monotonicity its size is a proven optimum upper
// bound for any dominated cell (k' >= k, δ' <= δ), and its clique is a
// valid incumbent for any cell whose constraints it satisfies. Running
// searches adopt both live — the bound can finish them early and exact,
// or tighten an anytime certificate; the incumbent sharpens pruning.
func (s *Session) broadcast(e *epoch, q Query, res *core.Result) {
	size := int32(res.Size())
	var na, nb, diff int32
	if res.Clique != nil {
		a, b := e.g.CountAttrs(res.Clique)
		na, nb = int32(a), int32(b)
		if diff = na - nb; diff < 0 {
			diff = -diff
		}
	}
	var injBounds, injSeeds int64
	s.runMu.Lock()
	for rs := range s.running {
		if rs.epoch != e.id {
			continue
		}
		if size > 0 && q.K <= rs.q.K && q.Delta >= rs.q.Delta {
			rs.inj.InjectBound(size)
			injBounds++
		}
		if res.Clique != nil && na >= rs.q.K && nb >= rs.q.K && diff <= rs.q.Delta {
			rs.inj.InjectSeed(res.Clique)
			injSeeds++
		}
	}
	s.runMu.Unlock()
	if injBounds+injSeeds > 0 {
		s.mu.Lock()
		s.stats.BoundInjections += injBounds
		s.stats.SeedInjections += injSeeds
		s.mu.Unlock()
	}
}

// recordSkip accounts a zero-branching answer on the query's epoch.
func (s *Session) recordSkip(e *epoch, q Query, size int32) {
	e.mu.Lock()
	e.table.Add(q.K, q.Delta, size)
	e.mu.Unlock()
	s.mu.Lock()
	s.stats.DominanceSkips++
	s.mu.Unlock()
}

// prepared returns the frozen search machinery for size constraint k
// on the given epoch, building it at most once. First queries at
// different k build concurrently; each k's entry builds exactly once.
func (s *Session) prepared(e *epoch, k int32) *core.Prepared {
	key := k
	if s.opt.SkipReduction {
		key = 0
	}
	e.mu.Lock()
	ent, ok := e.ks[key]
	if !ok {
		ent = &kEntry{}
		e.ks[key] = ent
	}
	e.mu.Unlock()
	if ok {
		s.mu.Lock()
		s.stats.ReductionReuses++
		s.mu.Unlock()
	}
	ent.once.Do(func() {
		if s.opt.SkipReduction {
			ent.sub = whole(e.g)
		} else {
			ent.sub = s.reduceAt(e, k)
		}
		ent.p = core.PrepareReduced(ent.sub.G, ent.sub.ToParent)
		ent.done.Store(true)
	})
	return ent.p
}

// reduceAt runs the reduction pipeline for k on epoch e. A fair clique
// with both attribute counts >= k also has counts >= j for every j < k,
// so the reduction at j keeps it, edges included, and the pipeline for
// k may run on the (smaller) subgraph of any j < k instead of the whole
// graph. reduceAt chains off the largest such j already built on the
// epoch, which makes an ascending-k grid pay the full O(α·|E|) triangle
// work once. The reduction components fan out across the session's
// worker bound; the parallel pipeline is bit-identical to the serial
// one.
func (s *Session) reduceAt(e *epoch, k int32) *graph.Subgraph {
	var base *graph.Subgraph
	var baseK int32
	e.mu.Lock()
	for j, ent := range e.ks {
		if j < k && j > baseK && ent.done.Load() {
			base, baseK = ent.sub, j
		}
	}
	e.mu.Unlock()
	s.mu.Lock()
	s.stats.ReductionBuilds++
	if base != nil {
		s.stats.ReductionChained++
	}
	s.mu.Unlock()
	if base == nil {
		sub, _ := reduce.PipelineN(e.g, k, s.opt.Workers)
		return sub
	}
	sub, _ := reduce.PipelineN(base.G, k, s.opt.Workers)
	for i, v := range sub.ToParent {
		sub.ToParent[i] = base.ToParent[v] // into the graph's ids
	}
	return sub
}

// ApplyStats reports what one Apply invalidated and what it retained.
type ApplyStats struct {
	// Epoch is the id of the epoch the delta created.
	Epoch int64
	// InsertedEdges/DeletedEdges/NewVertices are the delta's effective
	// size (deduplicated against the pre-delta graph).
	InsertedEdges, DeletedEdges, NewVertices int
	// SnapshotsPatched/SnapshotsReused count per-k reduced subgraphs
	// re-reduced on their dirty region vs kept by pointer;
	// SnapshotsRippled counts ones a delete-only delta re-peeled.
	SnapshotsPatched, SnapshotsReused int64
	SnapshotsRippled                  int64
	// CompPrepsReused counts adopted per-component machinery.
	CompPrepsReused int64
	// PoolRetained/PoolDropped count surviving vs destroyed warm-start
	// cliques.
	PoolRetained, PoolDropped int64
	// EnumDiffs reports, per cached enumeration cell, which cliques the
	// delta destroyed and which it created: the epoch diff of the
	// maintained result sets (see EnumDiff).
	EnumDiffs []EnumDiff
}

// Apply mutates the session's graph with a batched delta and swaps in
// a new epoch whose state is invalidated component-locally: untouched
// reduction-snapshot components and prepared components carry over,
// surviving pooled cliques keep seeding, and the monotonicity table is
// relaxed into safe upper bounds instead of being flushed. Queries
// already in flight finish race-free on the previous epoch (their
// answers describe the pre-delta graph); queries started after Apply
// returns see the new graph. Concurrent Apply calls are serialized.
func (s *Session) Apply(d *graph.Delta) (ApplyStats, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()

	old := s.cur.Load()
	if d.Empty() {
		// Nothing to do: keep the live epoch instead of paying a full
		// graph rebuild for a no-op.
		return ApplyStats{Epoch: old.id}, nil
	}
	newG, info, err := graph.ApplyDelta(old.g, d)
	if err != nil {
		return ApplyStats{}, err
	}
	ne := &epoch{id: old.id + 1, g: newG, ks: make(map[int32]*kEntry)}
	ast := ApplyStats{
		Epoch:         ne.id,
		InsertedEdges: len(info.Inserted),
		DeletedEdges:  len(info.Deleted),
		NewVertices:   int(info.NewVertexCount),
	}

	// Any clique the delta makes possible contains an inserted edge and
	// fits in its closed common neighborhood. The largest one is the
	// insertion floor for the monotonicity table; their union is the
	// region reduce.Patch re-reduces.
	var floor int32
	var region []int32
	for _, e := range info.Inserted {
		region = append(region, e[0], e[1])
		n := len(region)
		newG.CommonNeighbors(e[0], e[1], func(w int32) { region = append(region, w) })
		floor = max(floor, int32(2+len(region)-n))
	}
	slices.Sort(region)
	region = slices.Compact(region)

	old.mu.Lock()
	ne.table = old.table.Relax(floor)
	// Enumeration sets are immutable once stored: a shallow copy of the
	// map is a consistent snapshot to maintain against.
	oldEnums := maps.Clone(old.enums)
	oldPool := append([]poolClique(nil), old.pool...)
	oldKs := maps.Clone(old.ks)
	old.mu.Unlock()

	// Pool: a clique survives iff it is still a clique (attributes are
	// immutable, insertions cannot break one, deletions can).
	for _, c := range oldPool {
		if newG.IsClique(c.verts) {
			ne.pool = append(ne.pool, c)
			ast.PoolRetained++
		} else {
			ast.PoolDropped++
		}
	}

	// Reductions: patch each built k's subgraph. One the delta cannot
	// change keeps its Prepared by pointer; a patched one is re-prepared,
	// adopting every structurally untouched component. Entries never
	// built, or still building, are rebuilt lazily on the new epoch.
	for key, ent := range oldKs {
		if !ent.done.Load() {
			continue
		}
		nent := &kEntry{}
		if s.opt.SkipReduction {
			nent.sub = whole(newG)
		} else {
			nent.sub = reduce.Patch(ent.sub, newG, info, region, key, s.opt.Workers)
			switch {
			case nent.sub == ent.sub:
				ast.SnapshotsReused++
			case len(info.Inserted) == 0:
				ast.SnapshotsRippled++
			default:
				ast.SnapshotsPatched++
			}
		}
		if nent.sub == ent.sub {
			nent.p = ent.p
			ast.CompPrepsReused += int64(ent.p.PreparedComponents())
		} else {
			var adopted int
			nent.p, adopted = core.PrepareIncremental(nent.sub.G, nent.sub.ToParent, ent.p, info.Touches)
			ast.CompPrepsReused += int64(adopted)
		}
		nent.once.Do(func() {}) // built
		nent.done.Store(true)
		ne.ks[key] = nent
	}

	// Enumeration sets: maintain each cached cell across the delta —
	// survivor filtering when the insertion floor proves no new optimum
	// can appear, a fresh collect search otherwise — and report the
	// per-cell died/born diff. Runs after the preps adoption above so a
	// re-enumeration reuses the carried machinery.
	var maintained, recomputed int64
	ast.EnumDiffs, maintained, recomputed = s.maintainEnums(ne, oldEnums, floor)

	// Publish. Retired epochs keep serving their in-flight queries.
	s.mu.Lock()
	s.stats.Applies++
	s.stats.SnapshotsPatched += ast.SnapshotsPatched
	s.stats.SnapshotsReused += ast.SnapshotsReused
	s.stats.SnapshotsRippled += ast.SnapshotsRippled
	s.stats.CompPrepsReused += ast.CompPrepsReused
	s.stats.PoolRetained += ast.PoolRetained
	s.stats.PoolDropped += ast.PoolDropped
	s.stats.EnumMaintained += maintained
	s.stats.EnumRecomputed += recomputed
	s.mu.Unlock()
	s.cur.Store(ne)
	return ast, nil
}

// bestSeedLocked returns the largest pooled clique that is itself
// (k, δ)-fair, or nil. Pool entries are immutable, so the slice may be
// handed to the search as-is. e.mu must be held.
func bestSeedLocked(e *epoch, q Query) []int32 {
	var best []int32
	for _, c := range e.pool {
		if c.na >= q.K && c.nb >= q.K && c.diff <= q.Delta && len(c.verts) > len(best) {
			best = c.verts
		}
	}
	return best
}

// addPoolLocked pools a discovered fair clique for future warm-starts,
// keeping only the Pareto frontier: clique A supersedes B when A is
// valid wherever B is (min count >= , diff <=) and at least as large.
// e.mu must be held.
func addPoolLocked(e *epoch, clique []int32) {
	na, nb := e.g.CountAttrs(clique)
	c := poolClique{
		verts: append([]int32(nil), clique...),
		na:    int32(na), nb: int32(nb),
	}
	if c.diff = c.na - c.nb; c.diff < 0 {
		c.diff = -c.diff
	}
	minC := func(p poolClique) int32 {
		if p.na < p.nb {
			return p.na
		}
		return p.nb
	}
	for _, x := range e.pool {
		if minC(x) >= minC(c) && x.diff <= c.diff && len(x.verts) >= len(c.verts) {
			return // dominated by an existing entry
		}
	}
	kept := e.pool[:0]
	for _, x := range e.pool {
		if minC(c) >= minC(x) && c.diff <= x.diff && len(c.verts) >= len(x.verts) {
			continue // the new entry supersedes x
		}
		kept = append(kept, x)
	}
	e.pool = append(kept, c)
}

// whole is g viewed as its own reduction, for SkipReduction sessions.
func whole(g *graph.Graph) *graph.Subgraph {
	toParent := make([]int32, g.N())
	for i := range toParent {
		toParent[i] = int32(i)
	}
	return &graph.Subgraph{G: g, ToParent: toParent}
}
