// Package core implements the paper's primary contribution: the MaxRFC
// branch-and-bound search for the maximum relative fair clique
// (Algorithms 2-3), on top of the reduction pipeline (internal/reduce),
// the upper-bound suite (internal/bounds) and the heuristic seeding
// framework (internal/heuristic).
//
// The search follows Algorithm 2: reduce the graph with
// EnColorfulCore -> ColorfulSup -> EnColorfulSup, optionally seed the
// incumbent with HeurRFC, then branch-and-bound each connected
// component under the colorful-core peeling order (CalColorOD). The
// branching keeps the paper's alternating-attribute design under four
// rules that make it exact; a brute-force oracle validates them.
//
// # Branching rules
//
//   - Later-rank rule. Branching on u keeps, of u's own attribute, only
//     the neighbours after u in peel order, and of the other attribute
//     all neighbours. Vertices of one attribute therefore join R in
//     peel order, so no clique is built twice by reordering them.
//   - Fairness recording. Every node whose R is fair (both counts at
//     least k, difference at most δ) is offered to the incumbent, not
//     only the leaves: the optimum may be an inner node all of whose
//     extensions break fairness.
//   - Count-difference state machine. With diff = |R∩A| − |R∩B|, a node
//     at diff 0 adds an a, and at diff 1 adds a b, so the two sides
//     alternate. At diff 0 with k a's, a second branch declares side a
//     complete: it keeps only b candidates and adds b's from then on
//     (diff ≤ −1). At diff 1 with k b's, a second branch declares side
//     b complete the same way (diff ≥ 2, only a's).
//   - δ-caps. Once an attribute x has no candidates left, |R∩x| is
//     final and the other side may exceed it by at most δ. A node whose
//     other side already sits at that cap, with candidates of it still
//     pending, cannot grow into a larger fair clique and is pruned.
//
// # Per-node pruning
//
// Every branch node (R, C) runs these steps in order (prologue); the
// first that fails prunes the node:
//
//  1. Fairness recording: a fair R is offered to the incumbent.
//  2. The size bound ubs = |R|+|C| must beat the incumbent (or tie it,
//     in collect mode) and reach 2k.
//  3. Attribute feasibility: each side can still reach k.
//  4. The δ-caps above.
//  5. With UseBounds, on the bitset paths: ubAD (Lemmas 5-9) on R ∪ C.
//     The attribute bound comes from the counts alone; the colour
//     bounds from a greedy colouring of C, in which each R vertex is a
//     class of its own, because R is a clique adjacent to all of C.
//  6. With UseBounds, at the component root only: the Table II bound of
//     the whole component, ubAD on a fresh greedy colouring plus the
//     Extra bound (searchComponent). Its δ-independent part is a
//     bounds.Profile, computed once per component and cached on the
//     compPrep, so a query prices it in O(1).
//
// Step 6 departs from the paper, which evaluates its costly bounds when
// a vertex first joins R (depth 1, §VI). With ubAD at every node
// (step 5), a depth-1 evaluation rarely prunes what step 5 kept — 3 of
// 109 checks per search on the search-cold nucleus at (k, δ) = (2, 2)
// — yet it cost about a third of the search's CPU. At the root an
// Extra bound can still discard a whole component before any branch.
//
// The colouring needs no adjacency matrix beyond the successor rows.
// It builds each class from Q = the uncoloured candidates by taking
// v = the lowest vertex of Q and clearing succ(v) from Q. Every vertex
// left in Q lies above v, and succ(v) holds every neighbour of v above
// v (the same-attribute neighbours after v and every other-attribute
// neighbour), so this removes exactly v's neighbours. The classes are
// those of first-fit colouring in id (= peel rank) order.
//
// # Performance architecture
//
// The branch-and-bound hot path is an allocation-free, bitset-native
// engine with no component-size cap:
//
//   - Each connected component is relabeled so that vertex id equals
//     its CalColorOD peel rank. The later-rank rule then becomes a
//     plain id comparison, and candidate sets iterated in id order are
//     already in peel order.
//   - Candidate sets are flat packed bitsets ([]uint64) over a row
//     table (rowTable): the successor masks (adjacency AND
//     (same-attribute-later OR other-attribute)) of an id-ordered
//     vertex set, one row of ⌈n/64⌉ words per vertex. A node builds
//     each child with one inline AND over the row's words, the
//     per-attribute popcounts fused in.
//   - A component of n ≤ graph.ChunkBits vertices and m edges with
//     n·⌈n/64⌉ ≤ m gets one table over all of it (useFlatRows): never
//     more memory than its adjacency lists.
//   - Any other component's root is a list node (branchList): its
//     candidates are a sorted id list. Each root branch u reads only
//     vertices of S = succ(u), so the child builds a table over S, in
//     id order, in its worker's own arena, and the search continues on
//     flat rows. A candidate set of more than graph.ChunkBits vertices
//     (a hub's) stays a list node, so a worker never holds more than
//     ChunkBits rows of ChunkBits/64 words (2 MiB). List nodes build
//     their children by sorted intersection (graph.IntersectSorted)
//     and price C with first-fit colouring over the adjacency lists.
//   - Every form walks the same search tree: a table or a list over
//     the same candidates gives the same counts and colour classes.
//   - All per-node state lives in per-worker arenas indexed by search
//     depth: the clique buffer rbuf, in component ids, and one
//     candidate row or list per depth. Rows take whole cache lines, so
//     workers never write a line another reads. Steady-state branching
//     performs zero heap allocations per node (asserted by
//     TestBranchSteadyStateZeroAllocs).
//   - The per-node colouring uses two scratch rows per worker and
//     and-nots successor rows inline, over the span of non-zero
//     candidate words. It and the root's bounds.Profile compute ubAD
//     with the one formula bounds.AD.
//   - Options.Workers > 1 parallelizes *inside* a component: workers
//     pull the branches of the root node from one atomic cursor and
//     share the atomic incumbent (splitRoot). A component takes this
//     split when it is large or when fewer components than workers
//     remain; smaller ones are fanned out one per goroutine. Node
//     counting is batched per worker to keep the shared counters off
//     the hot path.
//
// The old binary-search slice path survives only as a differential-test
// oracle behind the test-only useSliceOracle flag.
package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/graph"
	"fairclique/internal/heuristic"
	"fairclique/internal/reduce"
)

// Options configures a MaxRFC run. The zero value of the feature flags
// reproduces the paper's plain "MaxRFC" baseline (reductions plus the
// size bound only); enabling UseBounds gives "MaxRFC+ub" and enabling
// both gives "MaxRFC+ub+HeurRFC".
type Options struct {
	// K is the per-attribute minimum (k >= 1).
	K int
	// Delta is the attribute-difference tolerance (delta >= 0).
	Delta int
	// UseBounds applies the advanced bound group ubAD (Lemmas 5-9) at
	// every branch node, and the Table II bound (ubAD on a fresh
	// colouring plus Extra) once per component root.
	UseBounds bool
	// Extra selects the additional non-trivial bound (Table II column).
	Extra bounds.Extra
	// UseHeuristic seeds the incumbent with HeurRFC before branching.
	UseHeuristic bool
	// SkipReduction disables the reduction pipeline (ablation only).
	SkipReduction bool
	// MaxNodes aborts the search after this many branch nodes when
	// positive (safety valve for experiment sweeps, and the anytime
	// node-budget mode). The result is then the best clique found so
	// far with a certified Result.UpperBound, and Stats.Aborted is set.
	// Because node counting is batched per worker, the abort may
	// trigger a few dozen nodes past the cap.
	MaxNodes int64
	// Deadline, when non-zero, makes the search anytime: on expiry the
	// search stops with the best incumbent found so far plus a certified
	// upper bound on the optimum (Result.UpperBound) priced from the
	// unexplored frontier — §IV's bounds over unexplored root branches
	// and components double as gap certifiers.
	// Stats.Aborted is set when the deadline fired. The clock is read
	// only around branching: once after HeurRFC, then at every 128-node
	// counter flush. The reduction (MaxRFC's, or the caller's), HeurRFC
	// and each component's preparation run before a check can see the
	// budget, and the certificate is priced after the last one, so a
	// run overshoots a budget shorter than their cost. A deadline that
	// never fires walks the unbudgeted tree.
	Deadline time.Time
	// Injector, when non-nil, lets concurrently running searches (the
	// session layer's grid cells) push proven bounds and valid
	// incumbents into this search while it runs. See Injector.
	Injector *Injector
	// Workers sets the number of goroutines branching concurrently.
	// A component is root-split when it has more than
	// smallComponentLimit vertices or fewer than Workers components
	// remain from it on: up to Workers goroutines pull its root branches
	// from one cursor and share the atomic incumbent, so Workers > 1
	// helps even when the reduced graph is a single component. The
	// remaining components are fanned out one per goroutine. Every
	// goroutine returns before Search does. 0 or 1 searches serially
	// (fully deterministic). With more workers the optimum size is
	// still exact, but which of several equally-sized cliques is
	// returned may vary between runs.
	Workers int
	// StopAtSize, when positive, is a caller-supplied trusted upper
	// bound on the optimum (the session layer derives one from already
	// solved queries via monotonicity): the search stops as soon as the
	// incumbent reaches it, and the result is still exact. Supplying a
	// value below the true optimum makes the result inexact, so callers
	// must only pass proven bounds.
	//
	// Multi-result semantics: with CollectAll set, StopAtSize must be
	// the EXACTLY KNOWN optimum size (not merely an upper bound) — the
	// search uses it as an incumbent floor that sharpens pruning and
	// restricts collection to cliques of that size, but it never stops
	// early on it, because every optimum-sized clique must still be
	// visited. Passing a non-tight upper bound in collect mode yields an
	// empty result set.
	StopAtSize int
	// CollectAll switches the search into collect-at-optimum mode: in
	// addition to one maximum fair clique, Result.Cliques receives EVERY
	// maximum fair clique (canonically sorted, deduplicated). Pruning is
	// relaxed from "no better than the incumbent" to "strictly worse
	// than the incumbent" so ties survive, and StopAtSize/injected
	// bounds never finish the run early (see StopAtSize). An aborted
	// collect run (MaxNodes/Deadline) returns the partial set found so
	// far with Stats.Aborted set; such sets are incomplete and must be
	// quarantined like any anytime result.
	CollectAll bool
}

// Stats reports search effort, for the experiment harness.
type Stats struct {
	// Nodes is the number of branch-and-bound nodes visited.
	Nodes int64
	// BoundChecks counts Table II bound checks (ubAD plus Extra), one
	// per component root; BoundPrunes counts how many of them pruned
	// their component. Neither counts the per-node ubAD bound, and the
	// check runs only on roots that bound kept.
	BoundChecks, BoundPrunes int64
	// ReducedVertices/ReducedEdges is the graph size after reduction.
	ReducedVertices, ReducedEdges int32
	// Components is the number of connected components searched.
	Components int
	// HeuristicSize is the size of the HeurRFC seed (0 if unused/none).
	HeuristicSize int
	// FrontierPriced counts the unexplored frontier nodes (root
	// branches, whole components) priced into the certificate after an
	// anytime abort (0 for exact runs).
	FrontierPriced int64
	// Aborted is set when MaxNodes or Deadline stopped the search
	// early; the result is then inexact with a certified UpperBound.
	Aborted bool
}

// Result is the outcome of a MaxRFC run.
type Result struct {
	// Clique is a maximum relative fair clique in g's vertex ids, or
	// nil when no (k, delta)-fair clique exists. When Stats.Aborted is
	// set it is only the best incumbent found within the budget.
	Clique []int32
	// UpperBound is a certified upper bound on the maximum fair clique
	// size: len(Clique) when the search is exact, and otherwise the
	// frontier certificate — the max of the incumbent and the §IV
	// bounds over every unexplored region, clamped to any
	// trusted StopAtSize or injected bound. Always >= len(Clique), so
	// UpperBound - len(Clique) is a sound optimality gap.
	UpperBound int32
	// Cliques, in CollectAll mode, holds every maximum fair clique:
	// each ascending-sorted, the set deduplicated and ordered
	// lexicographically. Nil outside collect mode. When Stats.Aborted
	// is set it is only the incumbent-sized cliques found within the
	// budget — an incomplete set.
	Cliques [][]int32
	// Stats describes the search effort.
	Stats Stats
}

// Size returns len(Clique).
func (r *Result) Size() int { return len(r.Clique) }

// MaxRFC finds a maximum relative fair clique of g (Algorithm 2): the
// one-shot entry point, equivalent to preparing the reduced graph and
// searching it once. Callers answering many queries over the same graph
// should hold on to a Prepared (or use internal/session) instead, so
// the reduction and the per-component machinery are paid once.
func MaxRFC(g *graph.Graph, opt Options) (*Result, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", opt.K)
	}
	if opt.Delta < 0 {
		return nil, fmt.Errorf("core: Delta must be >= 0, got %d", opt.Delta)
	}

	// Lines 1-3: reduction pipeline.
	var work *graph.Graph
	var toOrig []int32
	if opt.SkipReduction {
		work = g
		toOrig = identity(g.N())
	} else {
		// The reduction fans connected components across the same worker
		// bound the search uses; serial and parallel runs are
		// bit-identical.
		sub, _ := reduce.PipelineN(g, int32(opt.K), opt.Workers)
		work, toOrig = sub.G, sub.ToParent
	}
	return PrepareReduced(work, toOrig).Search(opt, nil)
}

// Prepared is a reduced graph frozen for repeated searching: connected
// components sorted largest-first, and — built lazily, once, per
// component — the peel-rank relabeling, the flat successor rows (when
// the component takes them), the attribute histogram and a freelist of
// worker arenas. A Prepared is immutable after construction apart from
// those internally synchronized caches, so concurrent Search calls
// (different queries over the same graph) may share it freely.
type Prepared struct {
	work   *graph.Graph
	toOrig []int32
	comps  [][]int32
	once   []sync.Once
	// local is the id table over work's ids that component builds
	// induce through. Builds of different components write disjoint
	// entries (their own members), each under its sync.Once.
	local []int32
	// preps are atomic so PreparedComponents (a session Apply counting
	// the components of a Prepared it keeps) can observe which
	// components finished building without racing a build that is
	// still in flight.
	preps []atomic.Pointer[compPrep]
}

// PrepareReduced freezes an already-reduced graph for searching. toOrig
// maps work's vertex ids back to the caller's original ids; Result
// cliques are reported in that original space. The caller is
// responsible for the reduction being valid for every K later searched
// (reduction at k preserves all fair cliques with per-attribute counts
// >= k, so a snapshot reduced at k serves any K >= k).
func PrepareReduced(work *graph.Graph, toOrig []int32) *Prepared {
	p := &Prepared{work: work, toOrig: toOrig}
	if work.N() == 0 {
		return p
	}
	p.comps = graph.ConnectedComponents(work)
	sort.SliceStable(p.comps, func(i, j int) bool { return len(p.comps[i]) > len(p.comps[j]) })
	p.once = make([]sync.Once, len(p.comps))
	p.preps = make([]atomic.Pointer[compPrep], len(p.comps))
	p.local = make([]int32, work.N())
	return p
}

// Work returns the reduced graph searches run against.
func (p *Prepared) Work() *graph.Graph { return p.work }

// Components returns the number of connected components.
func (p *Prepared) Components() int { return len(p.comps) }

// comp returns component i's prepared machinery, building it on first
// use. sync.Once makes the lazy build safe under concurrent searches.
func (p *Prepared) comp(i int) *compPrep {
	p.once[i].Do(func() { p.preps[i].Store(prepareComp(p.work, p.comps[i], p.toOrig, p.local)) })
	return p.preps[i].Load()
}

// PreparedComponents reports how many components currently have their
// machinery built (for invalidation stats and tests).
func (p *Prepared) PreparedComponents() int {
	n := 0
	for i := range p.preps {
		if p.preps[i].Load() != nil {
			n++
		}
	}
	return n
}

// Search runs one MaxRFC query over the prepared graph. seed, when
// non-nil, is a known (K, Delta)-fair clique in original ids that
// warm-starts the incumbent: the search only explores strictly larger
// cliques and returns the seed itself when nothing beats it. The caller
// must guarantee the seed is a valid fair clique for this query's
// (K, Delta); Search trusts it. Concurrent Search calls on one Prepared
// are safe — each gets its own incumbent and counters.
func (p *Prepared) Search(opt Options, seed []int32) (*Result, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", opt.K)
	}
	if opt.Delta < 0 {
		return nil, fmt.Errorf("core: Delta must be >= 0, got %d", opt.Delta)
	}
	res := &Result{}
	res.Stats.ReducedVertices, res.Stats.ReducedEdges = p.work.N(), p.work.M()
	res.Stats.Components = len(p.comps)

	s := &searcher{
		p:          p,
		k:          int32(opt.K),
		delta:      int32(opt.Delta),
		opt:        opt,
		collectAll: opt.CollectAll,
	}
	s.stopAt.Store(int32(opt.StopAtSize))
	if opt.anytime() {
		s.compAccounted = make([]atomic.Bool, len(p.comps))
		s.evalBudget.Store(frontierEvalBudget)
	}
	if len(seed) > 0 {
		s.seed = seed
		s.bestSize.Store(int32(len(seed)))
	}
	if s.collectAll {
		// In collect mode a trusted StopAtSize is the exactly known
		// optimum: adopt it as an incumbent floor so pruning is as sharp
		// as an exact re-run, and only optimum-sized cliques collect.
		if st := s.stopAt.Load(); st > s.bestSize.Load() {
			s.bestSize.Store(st)
		}
		if len(seed) > 0 && int32(len(seed)) == s.bestSize.Load() {
			// The seed belongs in the result set: it is a valid fair
			// clique of incumbent size. The search re-finds it anyway
			// (ties survive collect-mode pruning); dedup absorbs the
			// duplicate.
			s.all = append(s.all, canonClique(append([]int32(nil), seed...)))
		}
	}
	if opt.Injector != nil {
		opt.Injector.attach(s)
		defer opt.Injector.detach()
	}
	if p.work.N() == 0 {
		s.mu.Lock()
		if s.best != nil { // an attached Injector may have seeded it
			res.Clique = append([]int32(nil), s.best...)
		} else {
			res.Clique = cloneSeed(s.seed)
		}
		if s.collectAll {
			res.Cliques = dedupCliques(s.all)
		}
		s.mu.Unlock()
		res.UpperBound = int32(len(res.Clique))
		return res, nil
	}

	// Remark in §V: seed the incumbent with the heuristic result (only
	// when it beats the caller's warm-start seed).
	if opt.UseHeuristic {
		h := heuristic.HeurRFC(p.work, s.k, s.delta)
		if h.Clique != nil {
			res.Stats.HeuristicSize = len(h.Clique)
			// record, not a direct write: in collect mode a strict
			// improvement must also reset the accumulator.
			s.record(h.Clique, p.toOrig)
		}
	}
	if st := s.stopAt.Load(); !s.collectAll && st > 0 && s.bestSize.Load() >= st {
		s.done.Store(true) // the incumbent already meets the trusted bound
	}
	if s.pastDeadline() {
		s.aborted.Store(true) // budget already spent: certificate only
	}

	// Lines 6-11: branch each connected component under CalColorOD.
	// Components are searched largest-first so good incumbents surface
	// early. Workers > 1 parallelizes on two levels: a component gets
	// its root branches split across all Workers when it is large (so
	// a single giant component still scales) or when fewer components
	// than Workers remain (so no worker idles beside a lone component);
	// otherwise the tail of small components — where per-component
	// setup would dwarf an intra-split — is distributed across Workers
	// one component per goroutine.
	workers := max(opt.Workers, 1)
	idx := 0
	for ; idx < len(p.comps); idx++ {
		if workers > 1 && len(p.comps[idx]) <= smallComponentLimit && len(p.comps)-idx >= workers {
			break // the rest (sorted descending) go to the goroutines below
		}
		if s.halted() {
			break
		}
		s.searchComponent(idx, workers)
	}
	if workers > 1 && idx < len(p.comps) && !s.halted() {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ci := range jobs {
					s.searchComponent(ci, 1)
				}
			}()
		}
		for ci := idx; ci < len(p.comps); ci++ {
			if s.halted() {
				break
			}
			jobs <- ci
		}
		close(jobs)
		wg.Wait()
	}

	res.Stats.Nodes = s.nodes.Load()
	res.Stats.BoundChecks = s.boundChecks.Load()
	res.Stats.BoundPrunes = s.boundPrunes.Load()
	aborted := s.aborted.Load()
	if st := s.stopAt.Load(); !s.collectAll && aborted && st > 0 && s.bestSize.Load() >= st {
		// The incumbent meets a trusted optimum bound, so it is provably
		// optimal even though a budget also tripped: report exact. (Not
		// in collect mode: an interrupted enumeration is missing cliques
		// even when the incumbent size is provably optimal.)
		aborted = false
	}
	res.Stats.Aborted = aborted
	s.mu.Lock()
	if s.best != nil {
		res.Clique = append([]int32(nil), s.best...)
	} else {
		res.Clique = cloneSeed(s.seed)
	}
	if s.collectAll {
		res.Cliques = dedupCliques(s.all)
		if res.Clique == nil && len(res.Cliques) > 0 {
			res.Clique = append([]int32(nil), res.Cliques[0]...)
		}
	}
	s.mu.Unlock()
	if aborted {
		// Only a budget (MaxNodes or Deadline) aborts, and a budget arms
		// the frontier pricing.
		s.sweepFrontier()
		res.UpperBound = s.certifiedUB()
	} else {
		res.UpperBound = int32(len(res.Clique))
	}
	res.Stats.FrontierPriced = s.frontPriced.Load()
	return res, nil
}

// cloneSeed copies a warm-start seed for the result (nil stays nil).
func cloneSeed(seed []int32) []int32 {
	if seed == nil {
		return nil
	}
	return append([]int32(nil), seed...)
}

// searcher holds the shared state of one search run over the prepared
// graph: the incumbent and the effort counters, all safe for
// concurrent workers.
type searcher struct {
	p        *Prepared
	k, delta int32
	opt      Options
	seed     []int32 // caller's warm-start clique, in original ids

	// stopAt is the trusted optimum upper bound (0 = none). Atomic
	// because Injector.InjectBound tightens it while workers branch.
	stopAt atomic.Int32

	mu       sync.Mutex
	best     []int32      // in ORIGINAL graph ids
	bestSize atomic.Int32 // fast reads on the hot path

	// Collect-at-optimum accumulator (Options.CollectAll): every clique
	// of the current incumbent size, canonically sorted, in ORIGINAL
	// ids. Guarded by mu; reset whenever the incumbent strictly grows;
	// deduplicated once at the end of Search.
	collectAll bool
	all        [][]int32

	nodes       atomic.Int64
	boundChecks atomic.Int64
	boundPrunes atomic.Int64
	aborted     atomic.Bool // MaxNodes/Deadline tripped: result inexact
	done        atomic.Bool // StopAtSize reached: stop early, still exact

	// Anytime certificate state (only allocated/used when the search
	// has a budget — MaxNodes or Deadline — so exact runs stay
	// byte-identical in behavior and allocation profile).
	frontUB       atomic.Int32  // running max over priced frontier bounds
	frontPriced   atomic.Int64  // Stats.FrontierPriced
	evalBudget    atomic.Int64  // bounds.Evaluate calls left for the sweep
	compAccounted []atomic.Bool // per-component: fully explored or soundly pruned
}

// halted reports whether branching should stop, for either reason
// (inexact abort or exact early finish).
func (s *searcher) halted() bool { return s.aborted.Load() || s.done.Load() }

// record publishes a fair clique (in component ids, mapped to original
// ids through toOrig; a nil toOrig means r is already in original ids,
// as on the Injector's seed path, and is copied) if it improves the
// incumbent — or, in collect mode, ties it. The comparison runs against
// bestSize, not len(best), because a warm-start seed raises the former
// without materializing the latter.
func (s *searcher) record(r []int32, toOrig []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sz := int32(len(r))
	switch cur := s.bestSize.Load(); {
	case sz > cur:
		s.best = mapVerts(r, toOrig)
		s.bestSize.Store(sz)
		if s.collectAll {
			s.all = append(s.all[:0], canonClique(s.best))
		} else if st := s.stopAt.Load(); st > 0 && sz >= st {
			s.done.Store(true)
		}
	case s.collectAll && sz == cur && cur > 0:
		mapped := mapVerts(r, toOrig)
		if s.best == nil {
			s.best = mapped // a StopAtSize floor was met without a seed
		}
		s.all = append(s.all, canonClique(mapped))
	}
}

// canonClique returns the canonical (ascending-sorted) form of a clique
// whose backing array the caller owns; used only off the hot path, on
// cliques entering the collect accumulator.
func canonClique(c []int32) []int32 {
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// cut reports whether a node whose best reachable clique size is total
// can be pruned: in the default mode anything no better than the
// incumbent, in collect mode only what is strictly worse (ties must
// survive so every optimum-sized clique is visited).
func (s *searcher) cut(total int32) bool {
	if s.collectAll {
		return total < s.bestSize.Load()
	}
	return total <= s.bestSize.Load()
}

// dedupCliques sorts the collected cliques lexicographically (each
// already canonical) and drops duplicates — declare branches can visit
// one clique through several construction orders.
func dedupCliques(all [][]int32) [][]int32 {
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return cliqueLess(all[i], all[j]) })
	out := all[:1]
	for _, c := range all[1:] {
		if !cliqueEqual(out[len(out)-1], c) {
			out = append(out, c)
		}
	}
	return out
}

func cliqueLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func cliqueEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// useSliceOracle forces the legacy binary-search slice path for every
// component. It exists only so differential tests can run the bitset
// engine against the independent slice implementation; the production
// path is always a bitset one, with no component-size cap.
var useSliceOracle = false

// flatMaxVertices is the largest component that may get one row table
// over all of it (see useFlatRows). A variable so tests can force
// per-root rows (0) on every component.
var flatMaxVertices int32 = graph.ChunkBits

// tableMaxVertices is the largest candidate set a list node's child
// builds a row table over; a larger one is a list node itself (see
// branchList). A variable so tests can force list nodes everywhere (0).
var tableMaxVertices int32 = graph.ChunkBits

// useFlatRows reports whether a component of n vertices and m edges
// gets one row table over all of it: n must not exceed flatMaxVertices,
// and its n·⌈n/64⌉ words must not exceed m, so the rows never take
// more memory than the component's own adjacency lists (2m int32s).
// Any other component's root is a list node, and each root branch
// builds a table over its own candidates.
func useFlatRows(n, m int32) bool {
	return n <= flatMaxVertices && int64(n)*int64(graph.BitWords(n)) <= int64(m)
}

// perNodeBound switches the per-node ubAD bound of bounded bitset
// searches (see worker.nodeBound). A variable so tests can compare the
// trees with and without it.
var perNodeBound = true

// smallComponentLimit is the size at or below which a component is
// searched by a single goroutine of the component fan-out instead of
// being root-split, as long as at least Workers components remain to
// share out: small components finish faster than the split's
// per-component setup and barrier cost.
const smallComponentLimit = 1024

// compPrep is the query-independent prepared machinery of one
// component: the peel-rank-relabeled induced graph, the whole
// component's row table when it takes one, the attribute histogram, the
// Table II profiles and the recycled worker arenas. It is built once,
// by and for one Prepared, and shared — read-only apart from the
// locked freelists and profile cache — by every search and every worker
// that ever branches inside the component.
type compPrep struct {
	comp   *graph.Graph // induced component, relabeled so id == peel rank
	toOrig []int32      // component id -> ORIGINAL graph id
	n      int32
	cnt    [2]int32 // attribute histogram of the whole component

	// rows is the row table over the whole component (ids 0..n−1), or
	// nil: then the root is a list node over allVerts. The test-only
	// slice oracle (oracle set) also branches from allVerts.
	rows     *rowTable
	allVerts []int32 // 0..n-1: the root candidate list when rows is nil
	oracle   bool

	wmu  sync.Mutex
	free []*worker // recycled workers, arenas sized for this component

	pmu      sync.Mutex
	profiles map[bounds.Extra]bounds.Profile // the whole component's, by Extra
}

// rowTable holds the flat successor rows of an ascending set of
// component vertices: the whole component, or the candidates of one
// list node's child. Table index i stands for component vertex ids[i];
// ids ascend, so the later-rank rule and the colouring's id order hold
// on table indices unchanged.
type rowTable struct {
	n, words int32
	flat     []uint64    // row i is flat[i*words:(i+1)*words]: succ(ids[i]) ∩ ids
	attrMask [2][]uint64 // table indices of each attribute
	full     []uint64    // bits [0, n) set: the table's whole vertex set
	ids      []int32     // table index -> component id
	pos      []int32     // fill's scratch: component id -> table index, −1 outside
}

// row returns table index i's successor row.
func (t *rowTable) row(i int32) []uint64 {
	return t.flat[i*t.words : (i+1)*t.words]
}

// fill builds the table over vs, ascending vertices of g, reusing t's
// arrays when they are large enough. Row i is succ(vs[i]) ∩ vs, with
// succ[u] = N(u) ∩ (same-attribute vertices after u ∪ the other
// attribute): exactly the vertices expandBits may keep in u's child.
// Each row marks vs[i]'s neighbours through the pos map and then keeps
// the other attribute's bits and the same attribute's above i. A hub's
// row instead binary-searches vs in its adjacency list
// (graph.IntersectSorted), so a hub in many small tables does not cost
// its degree in each.
func (t *rowTable) fill(g *graph.Graph, vs []int32) {
	n := int32(len(vs))
	t.n, t.words = n, graph.BitWords(n)
	t.ids = append(t.ids[:0], vs...)
	t.flat = zeroed(t.flat, int(n*t.words))
	for x := range t.attrMask {
		t.attrMask[x] = zeroed(t.attrMask[x], int(t.words))
	}
	t.full = zeroed(t.full, int(t.words))
	graph.BitFillN(t.full, n)
	if t.pos == nil {
		t.pos = make([]int32, g.N())
		for v := range t.pos {
			t.pos[v] = -1
		}
	}
	for i, v := range vs {
		t.pos[v] = int32(i)
		graph.BitSet(t.attrMask[g.Attr(v)], int32(i))
	}
	for i, v := range vs {
		row := t.row(int32(i))
		if nb := g.Neighbors(v); len(nb) > 8*len(vs) {
			graph.IntersectSorted(nb, vs, func(u int32) { graph.BitSet(row, t.pos[u]) })
		} else {
			for _, u := range nb {
				if j := t.pos[u]; j >= 0 {
					graph.BitSet(row, j)
				}
			}
		}
		other, wi := t.attrMask[1-g.Attr(v)], i>>6
		for w := range wi {
			row[w] &= other[w]
		}
		row[wi] &= other[wi] | ^uint64(0)<<(uint(i&63)+1)
	}
	for _, v := range vs {
		t.pos[v] = -1
	}
}

// zeroed returns s resized to n zero words, reallocating only when its
// capacity is short.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return lineWords(n)
	}
	s = s[:n]
	clear(s)
	return s
}

// lineWords returns n zero words in an allocation of whole 64-byte
// cache lines (Go places such objects on line boundaries), so a row one
// worker writes never shares a line with a row another worker reads.
// Without it, a second worker's colouring scratch could sit beside the
// component table's masks, and a Workers 2 search spent several
// percent more CPU in its child ANDs.
func lineWords(n int) []uint64 {
	return make([]uint64, n, (n+7)&^7)
}

// profile returns the Table II profile of the whole component under
// extra, built on first use. The lock is held across the build so
// concurrent searches build each profile once.
func (c *compPrep) profile(extra bounds.Extra) bounds.Profile {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	p, ok := c.profiles[extra]
	if !ok {
		if c.profiles == nil {
			c.profiles = make(map[bounds.Extra]bounds.Profile)
		}
		p = bounds.NewProfile(c.comp, extra)
		c.profiles[extra] = p
	}
	return p
}

// getWorker pops a recycled worker (rebinding it to this search's view)
// or builds a fresh one. Recycling keeps repeated queries over a warm
// Prepared from re-allocating the O(n) clique buffer and the per-depth
// candidate rows — the session re-query path's allocs/node depends on
// it.
func (c *compPrep) getWorker(d *compData) *worker {
	c.wmu.Lock()
	var w *worker
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	}
	c.wmu.Unlock()
	if w == nil {
		return newWorker(d)
	}
	w.d = d
	w.collect = nil
	w.localNodes = 0
	w.flushEvery = flushEvery(d.s.opt)
	return w
}

// putWorker returns a worker whose search is finished to the freelist.
// The compData reference is dropped so a parked worker does not retain
// the finished search's incumbent state.
func (c *compPrep) putWorker(w *worker) {
	w.d = nil
	c.wmu.Lock()
	c.free = append(c.free, w)
	c.wmu.Unlock()
}

// compData is one search's view of a prepared component: the shared
// immutable compPrep plus the searcher (incumbent, counters) of this
// particular query.
type compData struct {
	*compPrep
	s *searcher
}

// newCompData builds a fresh per-search component view over a freshly
// prepared component (test entry point; Search goes through
// Prepared.comp for the cached build).
func (s *searcher) newCompData(comp []int32) *compData {
	return &compData{compPrep: prepareComp(s.p.work, comp, s.p.toOrig, make([]int32, s.p.work.N())), s: s}
}

// prepareComp induces comp, a connected component of the reduced graph
// g, through the id table local over g's ids, and relabels it by
// CalColorOD peel rank (Algorithm 2 line 9), then builds the whole
// component's row table when useFlatRows admits one. toOrig maps the
// reduced graph's ids to original ids; the compPrep composes the two so
// it is self-contained.
func prepareComp(g *graph.Graph, comp []int32, toOrig []int32, local []int32) *compPrep {
	sub := graph.InduceComponent(g, comp, nil, local)
	col := color.Greedy(sub.G)
	rank := colorful.PeelRank(sub.G, col)
	n := sub.G.N()

	// Relabel so that id order is peel-rank order: branching's
	// "same-attribute, later-rank" test becomes v > u, and bitset
	// iteration in id order visits candidates in CalColorOD order.
	order := make([]int32, n)
	for v := int32(0); v < n; v++ {
		order[rank[v]] = v
	}
	d := &compPrep{comp: graph.Induce(sub.G, order).G, toOrig: make([]int32, n), n: n}
	for i, v := range order {
		d.toOrig[i] = toOrig[sub.ToParent[v]]
	}
	for v := int32(0); v < n; v++ {
		d.cnt[d.comp.Attr(v)]++
	}
	d.allVerts = identity(n)
	if d.oracle = useSliceOracle; !d.oracle && useFlatRows(n, d.comp.M()) {
		d.rows = &rowTable{}
		d.rows.fill(d.comp, d.allVerts)
		d.allVerts = nil
	}
	return d
}

// worker is the per-goroutine branching state: depth-indexed arenas so
// steady-state branching allocates nothing.
//
// Invariant for rbuf (the clique arena): the branch node at depth d
// owns slot rbuf[d]; slots below d are frozen for the lifetime of that
// node, and rbuf[:d] is the current clique R, in component ids. The
// buffer is allocated once per worker at full component capacity, so
// the old append(r, u)-style re-allocation (and its aliasing footgun:
// siblings sharing a backing array) cannot occur.
type worker struct {
	d *compData

	rbuf []int32 // clique arena; rbuf[:depth] is R

	// t is the row table the bitset nodes read: the component's, or
	// own, which each list node's child rebuilds over its candidates.
	// cand holds one candidate row per depth, of words words, as table
	// indices (cand[0] is the component table's full row, never
	// written); cs one candidate list per depth, for list nodes and the
	// oracle (cs[0] is allVerts, never written).
	t     *rowTable
	own   rowTable
	words int32
	cand  [][]uint64
	cs    [][]int32

	// colU and colQ are the per-node colouring's scratch rows: the
	// uncoloured candidates and the open class's remaining candidates
	// (see classesFlat). col, used and kinds are the list colouring's
	// (see classesList).
	colU, colQ []uint64
	col        []int32
	used       []bool
	kinds      []uint8

	// collect, when non-nil, makes a depth-0 expand record the branch
	// vertices here instead of recursing — how the root is split into
	// parallel tasks without duplicating the branch prologue.
	collect []int32
	// collectBuf is collect's recycled backing array, kept across
	// searches by the compPrep freelist.
	collectBuf []int32

	localNodes int64 // batched into searcher.nodes by flushNodes
	flushEvery int64
}

// flushEvery is the node-accounting batch size: small when an abort cap
// must trip promptly, large otherwise to keep the shared atomic cold.
// Deadline runs flush mid-sized — each flush is also a clock check, and
// the deadline must fire at branch granularity, not hundreds of nodes
// late.
func flushEvery(opt Options) int64 {
	if opt.MaxNodes > 0 {
		return 8
	}
	if !opt.Deadline.IsZero() {
		return 128
	}
	return 256
}

func newWorker(d *compData) *worker {
	w := &worker{
		d:          d,
		rbuf:       make([]int32, d.n),
		flushEvery: flushEvery(d.s.opt),
	}
	switch {
	case d.rows != nil:
		w.t, w.words = d.rows, d.rows.words
		w.cand = append(w.cand, d.rows.full)
	case d.oracle:
		w.cs = append(w.cs, d.allVerts)
		return w
	default:
		// A list node's child builds a table of at most ChunkBits rows.
		w.t, w.words = &w.own, graph.BitWords(min(d.n, graph.ChunkBits))
		w.cand = append(w.cand, nil) // the root is a list node
		w.cs = append(w.cs, d.allVerts)
		// First-fit colouring uses at most maxDegree+1 colours.
		w.col = make([]int32, d.n)
		for i := range w.col {
			w.col[i] = -1
		}
		w.used = make([]bool, d.comp.MaxDegree()+1)
		w.kinds = make([]uint8, len(w.used))
	}
	w.colU = lineWords(int(w.words))
	w.colQ = lineWords(int(w.words))
	return w
}

// countNode batches node accounting: the shared atomic is touched once
// per flushEvery nodes instead of once per node.
func (w *worker) countNode() {
	w.localNodes++
	if w.localNodes >= w.flushEvery {
		w.flushNodes()
	}
}

func (w *worker) flushNodes() {
	if w.localNodes == 0 {
		return
	}
	s := w.d.s
	n := s.nodes.Add(w.localNodes)
	w.localNodes = 0
	if s.done.Load() {
		// An exact early finish (StopAtSize/injected bound) already
		// decided the run; tripping a budget now would spuriously mark
		// an exact result inexact.
		return
	}
	if s.opt.MaxNodes > 0 && n > s.opt.MaxNodes {
		s.aborted.Store(true)
	}
	if s.pastDeadline() {
		s.aborted.Store(true)
	}
}

// pastDeadline reports whether the wall-clock budget, if any, has run
// out. It compares times rather than UnixNano counts, which overflow
// past the year 2262: a far deadline must never read as spent.
func (s *searcher) pastDeadline() bool {
	return !s.opt.Deadline.IsZero() && !time.Now().Before(s.opt.Deadline)
}

// searchComponent branches the connected component at index ci of the
// prepared graph. The driver worker runs the root node's prologue
// (recording, size and attribute feasibility, δ-caps, ubAD) with
// collect set, so the expansion step yields the root branch vertices
// instead of recursing; with UseBounds the component's Table II bound
// then gets its one check (rootCut), and splitRoot runs the branches.
// Root branches are driven explicitly so an anytime abort knows exactly
// which of them are unexplored and can price them into the certificate;
// once they are priced the component is accounted, so the frontier
// sweep does not price it whole again.
func (s *searcher) searchComponent(ci, workers int) {
	// Re-checked here (not only at scheduling time) so a component
	// queued while the incumbent was small is pruned by the incumbent
	// that has grown since — before the lazy compPrep build, so skipped
	// components cost nothing.
	comp := s.p.comps[ci]
	if s.halted() {
		return // un-accounted: the frontier sweep prices the component
	}
	if s.cut(int32(len(comp))) || len(comp) < 2*s.opt.K {
		s.accountComp(ci) // provably no improvement here
		return
	}
	prep := s.p.comp(ci)
	d := &compData{compPrep: prep, s: s}
	driver := prep.getWorker(d)
	tasks := driver.rootTasks()
	if len(tasks) > 0 && s.opt.UseBounds && s.rootCut(prep) {
		tasks = nil
	}
	if len(tasks) == 0 {
		if !s.aborted.Load() {
			s.accountComp(ci) // pruned, not halted: soundly accounted
		}
		driver.flushNodes()
		prep.putWorker(driver)
		return
	}
	s.splitRoot(ci, driver, tasks, workers)
}

// rootCut is the component-root check: the Table II bound of the whole
// component against the incumbent. It counts one BoundChecks, and one
// BoundPrunes when the bound prunes the component.
func (s *searcher) rootCut(prep *compPrep) bool {
	s.boundChecks.Add(1)
	if ub := prep.profile(s.opt.Extra).Bound(s.delta); !s.cut(ub) && ub >= 2*s.k {
		return false
	}
	s.boundPrunes.Add(1)
	return true
}

// splitRoot runs the root branches of component ci (the shape of PMC,
// Rossi et al.): the driver, on the calling goroutine, and
// min(workers, len(tasks))−1 goroutines with workers of their own pull
// branches from one atomic cursor and run each to completion against
// the shared incumbent. With one worker no goroutine starts and the
// branches run in order: the serial search. The branch prologue
// re-checks the incumbent, so a branch claimed behind a grown incumbent
// is pruned at once. The WaitGroup join is the whole termination
// protocol: every goroutine has returned when splitRoot does. After an
// abort, the claimed branches it may have cut short and the unclaimed
// ones are priced whole into the certificate.
func (s *searcher) splitRoot(ci int, driver *worker, tasks []int32, workers int) {
	prep := driver.d.compPrep
	var next atomic.Int32 // overshoots len(tasks) by at most one per worker
	var mu sync.Mutex
	var cut []int32 // claimed branches an abort may have cut short
	run := func(w *worker) {
		for !s.halted() {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			w.runRootBranch(tasks[i])
			if s.aborted.Load() {
				mu.Lock()
				cut = append(cut, tasks[i])
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for range min(workers, len(tasks)) - 1 {
		w := prep.getWorker(driver.d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
			w.flushNodes()
			prep.putWorker(w)
		}()
	}
	run(driver)
	wg.Wait()
	driver.flushNodes()
	if s.aborted.Load() {
		driver.priceRootBranches(cut)
		driver.priceRootBranches(tasks[min(int(next.Load()), len(tasks)):])
	}
	s.accountComp(ci)
	prep.putWorker(driver)
}

// rootTasks runs the root node in collect mode and returns the root
// branch vertices — the tasks splitRoot distributes. The collect arena
// must be non-nil even when empty: the expand steps switch on
// `collect != nil`, so a nil buffer would silently degrade the split to
// a serial search.
func (w *worker) rootTasks() []int32 {
	if w.collectBuf == nil {
		w.collectBuf = make([]int32, 0, w.d.n)
	}
	w.collect = w.collectBuf[:0]
	w.branchRoot()
	tasks := w.collect
	w.collect = nil
	w.collectBuf = tasks[:0] // keep the (possibly grown) backing array
	return tasks
}

// branchRoot enters the root node: R = ∅, C = the whole component.
func (w *worker) branchRoot() {
	d := w.d
	switch {
	case d.rows != nil:
		w.branchBits(0, [2]int32{}, d.cnt)
	case d.oracle:
		w.branchSlice(0, d.allVerts, [2]int32{}, d.cnt)
	default:
		w.branchList(0, d.allVerts, [2]int32{}, d.cnt)
	}
}

// runRootBranch executes the root branch on vertex u: the child node
// the root's expand step would have recursed into.
func (w *worker) runRootBranch(u int32) {
	d := w.d
	var cnt [2]int32
	cnt[d.comp.Attr(u)]++
	switch {
	case d.rows != nil:
		w.rbuf[0] = u
		w.ensureBits(1)
		avail := w.makeChildBits(w.cand[1], w.cand[0], u, false)
		w.branchBits(1, cnt, avail)
	case d.oracle:
		w.rbuf[0] = u
		w.ensureSlice(1, len(d.allVerts))
		child, avail := w.makeChildSlice(1, d.allVerts, u, false)
		w.branchSlice(1, child, cnt, avail)
	default:
		w.listChild(0, d.allVerts, u, false, cnt)
	}
}

// ensureBits guarantees a candidate row exists for the given depth.
func (w *worker) ensureBits(depth int) {
	for len(w.cand) <= depth {
		w.cand = append(w.cand, lineWords(int(w.words)))
	}
}

// ensureSlice guarantees a candidate slice with capacity need exists
// for the given depth.
func (w *worker) ensureSlice(depth, need int) {
	for len(w.cs) <= depth {
		w.cs = append(w.cs, nil)
	}
	if cap(w.cs[depth]) < need {
		w.cs[depth] = make([]int32, 0, need)
	}
}

// makeChildBits writes into dst the child candidate set of branching on
// table index u from src: src ∩ succ(u), restricted to u's attribute
// when declare is set, with its per-attribute counts.
func (w *worker) makeChildBits(dst, src []uint64, u int32, declare bool) [2]int32 {
	t := w.t
	restrict := t.full // no restriction: src has no bits past n
	if declare {
		restrict = t.attrMask[w.d.comp.Attr(t.ids[u])]
	}
	a, n := andFlat(dst, src, t.row(u), restrict, t.attrMask[0])
	return [2]int32{a, n - a}
}

// andFlat sets dst = src ∧ row ∧ restrict over every word of row and
// returns a = |dst ∧ maskA| and t = |dst| from the same pass. All five
// rows have at least len(row) words.
func andFlat(dst, src, row, restrict, maskA []uint64) (a, t int32) {
	src, dst, restrict, maskA = src[:len(row)], dst[:len(row)], restrict[:len(row)], maskA[:len(row)]
	for j, x := range row {
		x &= src[j] & restrict[j]
		dst[j] = x
		a += int32(bits.OnesCount64(x & maskA[j]))
		t += int32(bits.OnesCount64(x))
	}
	return a, t
}

// makeChildSlice is makeChildBits for the oracle path: it fills the
// depth's candidate arena from src and returns it with the counts.
func (w *worker) makeChildSlice(depth int, src []int32, u int32, declare bool) ([]int32, [2]int32) {
	d := w.d
	attr := d.comp.Attr(u)
	child := w.cs[depth][:0]
	var avail [2]int32
	for _, v := range src {
		if v == u || !d.comp.HasEdge(u, v) {
			continue
		}
		if av := d.comp.Attr(v); av == attr {
			if v < u { // same attribute: only later peel ranks (ids)
				continue
			}
			avail[attr]++
		} else if declare {
			continue
		} else {
			avail[av]++
		}
		child = append(child, v)
	}
	w.cs[depth] = child // keep the (possibly grown) backing array
	return child, avail
}

// childList is makeChildBits for list nodes: it writes into the depth's
// list arena c ∩ succ(u), restricted to u's attribute when declare is
// set, from one sorted intersection of u's adjacency list with c, and
// returns it with its per-attribute counts.
func (w *worker) childList(depth int, c []int32, u int32, declare bool) ([]int32, [2]int32) {
	g := w.d.comp
	au := g.Attr(u)
	w.ensureSlice(depth, 0)
	child := w.cs[depth][:0]
	var avail [2]int32
	graph.IntersectSorted(g.Neighbors(u), c, func(v int32) {
		if av := g.Attr(v); av == au && v > u || av != au && !declare {
			avail[av]++
			child = append(child, v)
		}
	})
	w.cs[depth] = child // keep the (possibly grown) backing array
	return child, avail
}

// prologue runs the shared per-node bookkeeping and pruning (see the
// package comment's per-node pruning steps 1-5): node accounting,
// fairness recording, the size bound ubs and 2k floor (lines 19-20),
// attribute feasibility (lines 21-23), δ-caps, and ubAD on a table
// node's row cand or, when cand is nil, on a list node's list (never on
// the slice oracle). It returns false when the node is pruned; the
// caller then picks the expansion sides with searcher.sides.
func (w *worker) prologue(depth int, cnt, avail [2]int32, cand []uint64, list []int32) bool {
	s := w.d.s
	if s.halted() {
		return false
	}
	w.countNode()
	if cnt[0] >= s.k && cnt[1] >= s.k && abs32(cnt[0]-cnt[1]) <= s.delta {
		if bs := s.bestSize.Load(); int32(depth) > bs || (s.collectAll && int32(depth) == bs) {
			s.record(w.rbuf[:depth], w.d.toOrig)
		}
	}
	total := int32(depth) + avail[0] + avail[1]
	if s.cut(total) || total < 2*s.k {
		return false
	}
	if cnt[0]+avail[0] < s.k || cnt[1]+avail[1] < s.k {
		return false
	}
	// δ-caps: once an attribute has no candidates its count is final,
	// capping the other side at cnt+δ.
	for x := 0; x < 2; x++ {
		y := 1 - x
		if avail[x] == 0 && cnt[y] >= cnt[x]+s.delta && avail[y] > 0 {
			return false
		}
	}
	if s.opt.UseBounds && perNodeBound && !w.d.oracle {
		if ub := w.nodeBound(cnt, avail, cand, list); s.cut(ub) || ub < 2*s.k {
			return false
		}
	}
	return true
}

// sides applies the count-difference state machine to a node whose R
// has attribute counts cnt: it returns the attribute to branch on, and
// whether the node also gets a declare branch on the other one.
func (s *searcher) sides(cnt [2]int32) (graph.Attr, bool) {
	switch diff := cnt[0] - cnt[1]; {
	case diff >= 2:
		return graph.AttrA, false
	case diff <= -1:
		return graph.AttrB, false
	case diff == 0:
		return graph.AttrA, cnt[0] >= s.k // declare side a complete
	default: // diff == 1
		return graph.AttrB, cnt[1] >= s.k // declare side b complete
	}
}

// nodeBound returns ubAD (Lemmas 5-9) of the node (R, C), C being the
// table row cand or, when cand is nil, the list: the attribute bound
// from the counts alone when that already prunes, and otherwise the
// full group over a greedy colouring of C. R is a clique adjacent to
// every candidate, so each R vertex is a colour class of its own,
// exclusive to its attribute.
func (w *worker) nodeBound(cnt, avail [2]int32, cand []uint64, list []int32) int32 {
	s := w.d.s
	na, nb := cnt[0]+avail[0], cnt[1]+avail[1]
	if ub := bounds.Combine(na, nb, s.delta); s.cut(ub) || ub < 2*s.k {
		return ub
	}
	var ca, cb, cm int32
	if cand != nil {
		ca, cb, cm = w.colourClasses(cand)
	} else {
		ca, cb, cm = w.classesList(list)
	}
	return bounds.AD(na, nb, cnt[0]+ca, cnt[1]+cb, cm, s.delta)
}

// colourClasses colours the candidate row greedily in id (= peel rank)
// order and returns its number of a-only, b-only and mixed classes,
// after copying the row's span of non-zero words into the colU
// scratch.
func (w *worker) colourClasses(cand []uint64) (ca, cb, cm int32) {
	lo, hi := nonZeroSpan(cand, 0, len(cand))
	copy(w.colU[lo:hi], cand[lo:hi])
	return w.classesFlat(lo, hi)
}

// nonZeroSpan narrows [lo, hi) to the words from the first to the last
// non-zero word of q (empty when all are zero).
func nonZeroSpan(q []uint64, lo, hi int) (int, int) {
	for lo < hi && q[lo] == 0 {
		lo++
	}
	for hi > lo && q[hi-1] == 0 {
		hi--
	}
	return lo, hi
}

// classesFlat colours the uncoloured candidates colU[lo:hi] on the
// worker's table, one class at a time. A class starts as Q = the
// uncoloured candidates and repeatedly takes v = the lowest vertex of Q
// and sets Q &^= succ(v). Every vertex left in Q lies above v, and
// succ(v) holds every neighbour of v above v, so this drops exactly v's
// neighbours; the and-not runs from v's word to hi only. The classes
// are those of first-fit colouring in id order.
func (w *worker) classesFlat(lo, hi int) (ca, cb, cm int32) {
	t := w.t
	maskA := t.attrMask[0]
	nw := int(t.words)
	for lo < hi {
		unc, q := w.colU[:hi], w.colQ[:hi]
		copy(q[lo:], unc[lo:])
		var inA, inB uint64 // the class's members of each attribute, folded
		for qi := lo; qi < hi; qi++ {
			var took uint64 // the class's members in word qi
			for x := q[qi]; x != 0; {
				bit := x & -x
				took |= bit
				row := t.flat[(qi<<6+bits.TrailingZeros64(x))*nw+qi:]
				x &^= bit | row[0]
				qs := q[qi+1:]
				row = row[1 : len(qs)+1]
				for j := range qs {
					qs[j] &^= row[j]
				}
			}
			unc[qi] &^= took
			inA |= took & maskA[qi]
			inB |= took &^ maskA[qi]
		}
		ca, cb, cm = tally(ca, cb, cm, inA, inB)
		lo, hi = nonZeroSpan(unc, lo, hi)
	}
	return ca, cb, cm
}

// classesList is classesFlat on a list node: first-fit colouring of the
// ascending list c from the adjacency lists, each vertex taking the
// smallest colour that no earlier vertex of c adjacent to it wears —
// the classes classesFlat builds over the same candidates. w.col holds
// each coloured vertex's colour and is −1 everywhere between calls;
// w.kinds folds each class's attributes.
func (w *worker) classesList(c []int32) (ca, cb, cm int32) {
	g := w.d.comp
	col, used, kinds := w.col, w.used, w.kinds
	var ncol int32
	for _, v := range c {
		nb := g.Neighbors(v)
		for _, u := range nb {
			if x := col[u]; x >= 0 {
				used[x] = true
			}
		}
		x := int32(0)
		for used[x] {
			x++
		}
		for _, u := range nb {
			if y := col[u]; y >= 0 {
				used[y] = false
			}
		}
		col[v] = x
		if x == ncol {
			kinds[x] = 0
			ncol++
		}
		kinds[x] |= 1 << g.Attr(v)
	}
	for _, v := range c {
		col[v] = -1
	}
	for _, k := range kinds[:ncol] {
		ca, cb, cm = tally(ca, cb, cm, uint64(k&1), uint64(k>>1))
	}
	return ca, cb, cm
}

// tally adds one finished class, whose members of each attribute are
// folded into inA and inB, to the a-only, b-only and mixed counts,
// without a branch on the class's kind.
func tally(ca, cb, cm int32, inA, inB uint64) (int32, int32, int32) {
	a := int32((inA | -inA) >> 63) // 1 when the class has an a-vertex
	b := int32((inB | -inB) >> 63)
	return ca + a&^b, cb + b&^a, cm + a&b
}

// branchBits is one node of the search tree on the worker's row table.
// The candidates live in w.cand[depth], R in w.rbuf[:depth].
func (w *worker) branchBits(depth int, cnt, avail [2]int32) {
	if !w.prologue(depth, cnt, avail, w.cand[depth][:w.t.words], nil) {
		return
	}
	attr, declare := w.d.s.sides(cnt)
	w.expandBits(depth, attr, false, cnt)
	if declare {
		w.expandBits(depth, 1-attr, true, cnt)
	}
}

// expandBits branches on every candidate of the given attribute, in id
// (= peel rank) order: it walks src ∧ am word by word and builds each
// child with one AND over the row's words. Every candidate has
// attribute attr, so the declare mask is am itself; without a
// declaration the table's full row stands in for it.
func (w *worker) expandBits(depth int, attr graph.Attr, declare bool, cnt [2]int32) {
	t := w.t
	src := w.cand[depth][:t.words]
	am := t.attrMask[attr]
	if w.collect != nil && depth == 0 {
		// Root split: record the branch vertices for the task queue.
		for wi, sw := range src {
			for word := sw & am[wi]; word != 0; word &= word - 1 {
				w.collect = append(w.collect, int32(wi<<6+bits.TrailingZeros64(word)))
			}
		}
		return
	}
	w.ensureBits(depth + 1)
	dst := w.cand[depth+1]
	restrict := t.full
	if declare {
		restrict = am
	}
	ncnt := cnt
	ncnt[attr]++
	s := w.d.s
	for wi, sw := range src {
		word := sw & am[wi]
		for word != 0 {
			u := int32(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if s.halted() {
				return
			}
			a, n := andFlat(dst, src, t.row(u), restrict, t.attrMask[0])
			w.rbuf[depth] = t.ids[u]
			w.branchBits(depth+1, ncnt, [2]int32{a, n - a})
		}
	}
}

// branchList is one node of the search tree whose candidates are the
// ascending list c of component ids: the root of a component without a
// whole-component table, or a candidate set of more than
// tableMaxVertices vertices. It runs the table node's prologue, ubAD
// from classesList, and branches through listChild.
func (w *worker) branchList(depth int, c []int32, cnt, avail [2]int32) {
	if !w.prologue(depth, cnt, avail, nil, c) {
		return
	}
	attr, declare := w.d.s.sides(cnt)
	w.expandList(depth, c, attr, false, cnt)
	if declare {
		w.expandList(depth, c, 1-attr, true, cnt)
	}
}

// expandList is expandBits on a list node: it branches on every
// candidate of the given attribute in c, in id order.
func (w *worker) expandList(depth int, c []int32, attr graph.Attr, declare bool, cnt [2]int32) {
	d := w.d
	if w.collect != nil && depth == 0 {
		for _, u := range c {
			if d.comp.Attr(u) == attr {
				w.collect = append(w.collect, u)
			}
		}
		return
	}
	ncnt := cnt
	ncnt[attr]++
	for _, u := range c {
		if d.comp.Attr(u) != attr {
			continue
		}
		if d.s.halted() {
			return
		}
		w.listChild(depth, c, u, declare, ncnt)
	}
}

// listChild branches from the list node (depth, c) on u into the child
// with R's counts ncnt. A child of at most tableMaxVertices candidates
// continues as a table node over the worker's own table, rebuilt over
// its candidates (every deeper candidate set is a subset of them); a
// larger one is a list node.
func (w *worker) listChild(depth int, c []int32, u int32, declare bool, ncnt [2]int32) {
	child, avail := w.childList(depth+1, c, u, declare)
	w.rbuf[depth] = u
	if int32(len(child)) > tableMaxVertices {
		w.branchList(depth+1, child, ncnt, avail)
		return
	}
	w.own.fill(w.d.comp, child)
	w.ensureBits(depth + 1)
	copy(w.cand[depth+1], w.own.full)
	w.branchBits(depth+1, ncnt, avail)
}

// branchSlice is branchBits on the oracle path (binary-search adjacency
// tests over candidate slices).
func (w *worker) branchSlice(depth int, c []int32, cnt, avail [2]int32) {
	if !w.prologue(depth, cnt, avail, nil, nil) {
		return
	}
	attr, declare := w.d.s.sides(cnt)
	w.expandSlice(depth, c, attr, false, cnt)
	if declare {
		w.expandSlice(depth, c, 1-attr, true, cnt)
	}
}

func (w *worker) expandSlice(depth int, c []int32, attr graph.Attr, declare bool, cnt [2]int32) {
	d := w.d
	s := d.s
	if w.collect != nil && depth == 0 {
		for _, u := range c {
			if d.comp.Attr(u) == attr {
				w.collect = append(w.collect, u)
			}
		}
		return
	}
	ncnt := cnt
	ncnt[attr]++
	for _, u := range c {
		if d.comp.Attr(u) != attr {
			continue
		}
		if s.halted() {
			return
		}
		w.ensureSlice(depth+1, len(c))
		child, avail := w.makeChildSlice(depth+1, c, u, declare)
		w.rbuf[depth] = u
		w.branchSlice(depth+1, child, ncnt, avail)
	}
}

func identity(n int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// mapVerts returns vs mapped through to, or a copy of vs when to is nil.
func mapVerts(vs, to []int32) []int32 {
	if to == nil {
		return append([]int32(nil), vs...)
	}
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = to[v]
	}
	return out
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
