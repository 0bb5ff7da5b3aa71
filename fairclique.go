// Package fairclique finds maximum relative fair cliques in attributed
// graphs, reproducing "Efficient Maximum Fair Clique Search over Large
// Networks" (Zhang, Li, Zheng, Qin, Yuan, Wang — ICDE 2025,
// arXiv:2312.04088).
//
// A (k, δ)-relative fair clique of a graph whose vertices carry one of
// two attributes is a clique with at least k vertices of each attribute
// whose attribute counts differ by at most δ. This package exposes:
//
//   - Graph construction (NewGraph / builder methods, text IO),
//   - Find: the exact MaxRFC branch-and-bound with the paper's
//     reduction pipeline, upper bounds and heuristic seeding,
//   - NewSession: a prepared multi-query engine that prepares the
//     graph once and answers a grid of (k, δ, mode) queries with
//     shared preprocessing and cross-query warm-starts; Session.Apply
//     mutates the graph with batched edge/vertex deltas, invalidating
//     only the components the delta touches,
//   - Enumerate / Session.Enumerate: every maximum fair clique of a
//     cell (or a diversified top-r subset) as a ResultSet, computed by
//     the same branch-and-bound engine in collect-at-optimum mode and
//     maintained incrementally across Session.Apply deltas,
//   - Heuristic: the linear-time HeurRFC approximation,
//   - Reduce: the colorful-support reduction pipeline on its own.
//
// # Quick start
//
//	g := fairclique.NewGraph(4)
//	g.SetAttr(0, fairclique.AttrA)
//	g.SetAttr(1, fairclique.AttrA)
//	g.SetAttr(2, fairclique.AttrB)
//	g.SetAttr(3, fairclique.AttrB)
//	for u := 0; u < 4; u++ {
//		for v := u + 1; v < 4; v++ {
//			g.AddEdge(u, v)
//		}
//	}
//	res, err := fairclique.Find(g, fairclique.Options{K: 2, Delta: 0})
//	// res.Clique == [0 1 2 3]
//
// See the examples/ directory for runnable programs, ARCHITECTURE.md for
// the layer map, and README.md for where the departures from the
// paper's pseudo-code are documented.
package fairclique

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/core"
	"fairclique/internal/graph"
	"fairclique/internal/heuristic"
	"fairclique/internal/reduce"
	"fairclique/internal/session"
)

// Attr is a binary vertex attribute; the paper's A = {a, b}.
type Attr = graph.Attr

// Attribute values.
const (
	AttrA = graph.AttrA
	AttrB = graph.AttrB
)

// UpperBound selects the extra upper bound used on top of the paper's
// "advanced" group (ubs, uba, ubc, ubac, ubeac) — the six columns of
// Table II.
type UpperBound = bounds.Extra

// Upper-bound configurations.
const (
	// UBAdvanced uses only the advanced group.
	UBAdvanced = bounds.None
	// UBDegeneracy adds the degeneracy bound ub△.
	UBDegeneracy = bounds.Degeneracy
	// UBHIndex adds the h-index bound ubh.
	UBHIndex = bounds.HIndex
	// UBColorfulDegeneracy adds the colorful degeneracy bound ubcd.
	UBColorfulDegeneracy = bounds.ColorfulDegeneracy
	// UBColorfulHIndex adds the colorful h-index bound ubch.
	UBColorfulHIndex = bounds.ColorfulHIndex
	// UBColorfulPath adds the colorful path bound ubcp.
	UBColorfulPath = bounds.ColorfulPath
)

// Graph is a mutable attributed graph. Build it up with AddVertex /
// SetAttr / AddEdge, then query it with Find and friends. Mutations
// after a query are allowed; the next query re-freezes the graph.
//
// # Concurrency
//
// Read-only methods (M, Attr, Degree, HasEdge, Neighbors, IsFairClique,
// Find and the other query entry points) are safe to call from any
// number of goroutines simultaneously: the lazily built frozen snapshot
// they share is initialized under a mutex exactly once. Mutation
// (AddVertex, SetAttr, AddEdge) is single-goroutine: it must not run
// concurrently with any other method — reader or mutator — on the same
// Graph. A long-lived concurrent workload should freeze the graph into
// a Session (NewSession) and mutate through Session.Apply, which is
// fully concurrent-safe.
type Graph struct {
	b *graph.Builder

	// mu guards frozen. Mutators hold it only to invalidate; freeze
	// holds it across the build so concurrent readers share one
	// snapshot instead of racing the lazy init (the historical bug:
	// two goroutines calling HasEdge on a never-frozen graph raced on
	// the unsynchronized g.frozen write).
	mu     sync.Mutex
	frozen *graph.Graph // cache invalidated by mutation
}

// NewGraph returns a graph with n vertices (ids 0..n-1), all AttrA.
func NewGraph(n int) *Graph {
	return &Graph{b: graph.NewBuilder(n)}
}

// AddVertex appends a vertex with the given attribute, returning its
// id. Like all mutators it must not race any other method of g.
func (g *Graph) AddVertex(a Attr) int {
	g.invalidate()
	return int(g.b.AddVertex(a))
}

// SetAttr sets the attribute of vertex v. Like all mutators it must
// not race any other method of g.
func (g *Graph) SetAttr(v int, a Attr) {
	id := mustID32(v)
	g.invalidate()
	g.b.SetAttr(id, a)
}

// AddEdge adds the undirected edge (u, v). Self-loops are ignored and
// duplicates are deduplicated. Panics if an endpoint does not exist.
// Like all mutators it must not race any other method of g.
func (g *Graph) AddEdge(u, v int) {
	iu, iv := mustID32(u), mustID32(v)
	g.invalidate()
	g.b.AddEdge(iu, iv)
}

// invalidate drops the frozen snapshot ahead of a mutation. Taking the
// lock keeps the write ordered for any reader that slipped in between
// two mutations; the mutation of the builder itself is still
// single-goroutine by contract.
func (g *Graph) invalidate() {
	g.mu.Lock()
	g.frozen = nil
	g.mu.Unlock()
}

// N returns the number of vertices.
func (g *Graph) N() int { return int(g.b.N()) }

// M returns the number of distinct undirected edges.
func (g *Graph) M() int { return int(g.freeze().M()) }

// Attr returns the attribute of v.
func (g *Graph) Attr(v int) Attr { return g.freeze().Attr(mustID32(v)) }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.freeze().Deg(mustID32(v))) }

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool { return g.freeze().HasEdge(mustID32(u), mustID32(v)) }

// Neighbors returns the sorted neighbour list of v (a fresh slice).
func (g *Graph) Neighbors(v int) []int {
	nbrs := g.freeze().Neighbors(mustID32(v))
	out := make([]int, len(nbrs))
	for i, w := range nbrs {
		out[i] = int(w)
	}
	return out
}

// IsFairClique reports whether s is a (k, delta)-relative fair clique
// of g, per Definition 1 condition (i).
func (g *Graph) IsFairClique(s []int, k, delta int) bool {
	ids, err := toInt32(s)
	if err != nil {
		panic(err)
	}
	return g.freeze().IsFairClique(ids, k, delta)
}

// freeze materializes the immutable snapshot queries run against. It
// is safe for concurrent use: the first reader after a mutation builds
// the snapshot under the lock and every concurrent reader shares it.
func (g *Graph) freeze() *graph.Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.frozen == nil {
		g.frozen = g.b.Build()
	}
	return g.frozen
}

// fromInternal wraps an already-built internal graph.
func fromInternal(ig *graph.Graph) *Graph {
	b := graph.NewBuilder(int(ig.N()))
	for v := int32(0); v < ig.N(); v++ {
		b.SetAttr(v, ig.Attr(v))
	}
	for e := int32(0); e < ig.M(); e++ {
		u, v := ig.Edge(e)
		b.AddEdge(u, v)
	}
	return &Graph{b: b, frozen: ig}
}

// ReadSNAPFiles loads a SNAP-format edge-list file and an optional
// companion attribute file ("" for none) through the streaming CSR
// builder: external vertex ids may be sparse (they are densified in
// first-seen order, attribute file first), self-loops are dropped,
// duplicate and reversed edges are merged, and the raw edge list is
// never held in memory alongside the finished graph. Malformed records
// are rejected with file- and line-numbered errors. This is the ingest
// path for paper-scale instances; note that the returned Graph copies
// into the mutable builder, so for benchmark-scale read-only pipelines
// the cmd/benchmark ingest experiment uses the internal path directly.
func ReadSNAPFiles(edgePath, attrPath string) (*Graph, error) {
	ig, _, err := graph.LoadSNAP(edgePath, attrPath, graph.StreamConfig{})
	if err != nil {
		return nil, fmt.Errorf("fairclique: %w", err)
	}
	return fromInternal(ig), nil
}

// ReadGraph parses a graph from the text format documented in the
// internal graph package: "v <id> <a|b>" and "e <u> <v>" records, plus
// plain SNAP-style "<u> <v>" edge lines.
func ReadGraph(r io.Reader) (*Graph, error) {
	ig, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return fromInternal(ig), nil
}

// ReadLimits bounds ReadGraphLimited for untrusted input; zero fields
// are unlimited. See graph.ReadLimits for field semantics.
type ReadLimits = graph.ReadLimits

// ReadGraphLimited parses a graph like ReadGraph but rejects input
// exceeding lim with a line-numbered error instead of committing to an
// arbitrarily large allocation. This is the parser the mfcd daemon
// runs on uploaded graph bodies.
func ReadGraphLimited(r io.Reader, lim ReadLimits) (*Graph, error) {
	ig, err := graph.ReadWithLimits(r, lim)
	if err != nil {
		return nil, err
	}
	return fromInternal(ig), nil
}

// ReadGraphFile parses the graph stored at path.
func ReadGraphFile(path string) (*Graph, error) {
	ig, err := graph.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return fromInternal(ig), nil
}

// WriteGraph serializes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error {
	return graph.Write(w, g.freeze())
}

// Options configures Find. The zero value is invalid (K must be >= 1);
// DefaultOptions supplies the recommended configuration.
type Options struct {
	// K is the per-attribute minimum count (>= 1).
	K int
	// Delta is the maximum attribute-count difference (>= 0). Read only
	// when Mode is ModeRelative; the other modes fix their own δ.
	//
	// For the weak or strong model, set Mode rather than passing δ = |V|
	// or δ = 0 here.
	Delta int
	// Mode selects the fairness model (default ModeRelative, which
	// reads Delta). ModeWeak and ModeStrong resolve their δ internally,
	// exactly like the session's QuerySpec.
	Mode Mode
	// DisableBounds turns off the upper-bound pruning group (the
	// paper's plain "MaxRFC" baseline).
	DisableBounds bool
	// Bound selects the extra upper bound. The zero value is
	// UBAdvanced (the advanced group alone); DefaultOptions selects
	// UBColorfulDegeneracy.
	Bound UpperBound
	// DisableHeuristic turns off HeurRFC incumbent seeding.
	DisableHeuristic bool
	// DisableReduction skips the graph reduction pipeline (ablation).
	DisableReduction bool
	// MaxNodes aborts after this many branch nodes when positive; the
	// result is then a (possibly sub-optimal) fair clique with
	// Result.Exact == false and a certified Result.UpperBound on the
	// optimum.
	MaxNodes int64
	// Deadline, when positive, turns the search anytime: on expiry it
	// returns the best incumbent found plus a certified upper bound on
	// the optimum (Result.UpperBound / Result.Gap). A search that proves
	// optimality before the deadline returns exact as usual. The clock
	// is read only around branching (before the first branch, then
	// every 128 nodes): the reduction, the HeurRFC seeding and each
	// component's preparation run before a check can see the budget,
	// and the upper bound is priced after the last one, so a budget
	// shorter than their cost is overrun by it. A deadline that never
	// fires changes nothing: the search is the unbudgeted one.
	Deadline time.Duration
	// Workers branches concurrently when > 1. A connected component
	// with more than 1,024 vertices, or one of fewer than Workers
	// components left, has its root branches split across the workers,
	// so parallelism helps even when the reduced graph is a single
	// component; the components of a many-component graph are handed
	// out one per worker. The optimum size stays exact; with several
	// equally-sized optima the returned vertex set may vary between
	// runs.
	Workers int
}

// DefaultOptions returns the recommended configuration for (k, delta):
// all reductions, the colorful-degeneracy bound, heuristic seeding.
func DefaultOptions(k, delta int) Options {
	return Options{K: k, Delta: delta, Bound: UBColorfulDegeneracy}
}

// Result reports the outcome of Find.
type Result struct {
	// Clique is a maximum (k, δ)-relative fair clique, nil if none
	// exists. Vertices are ids of the queried Graph.
	Clique []int
	// CountA and CountB are the attribute counts of Clique.
	CountA, CountB int
	// Exact is false only if a budget (MaxNodes or Deadline) aborted the
	// search before it proved optimality.
	Exact bool
	// UpperBound is a certified upper bound on the maximum fair clique
	// size: the optimum lies in [Size(), UpperBound]. Equal to Size()
	// whenever Exact.
	UpperBound int
	// Gap is UpperBound - Size(): 0 for exact answers, otherwise the
	// certified optimality gap of the anytime answer.
	Gap int
	// Stats describes the search effort.
	Stats SearchStats
}

// SearchStats summarizes search effort.
type SearchStats struct {
	// Nodes is the number of branch-and-bound nodes visited.
	Nodes int64
	// BoundChecks and BoundPrunes count Table II bound checks, one per
	// component root, and the prunes they produced. The colour bounds
	// checked at every branch node are not counted.
	BoundChecks, BoundPrunes int64
	// ReducedVertices and ReducedEdges are the graph size after the
	// reduction pipeline.
	ReducedVertices, ReducedEdges int
	// HeuristicSize is the size of the HeurRFC seed clique (0 if none).
	HeuristicSize int
	// FrontierPriced is the number of unexplored search regions priced
	// into the certificate after a budget abort (0 for exact runs).
	FrontierPriced int64
}

// Size returns len(Clique).
func (r *Result) Size() int { return len(r.Clique) }

// Find computes a maximum relative fair clique of g (Algorithm 2,
// MaxRFC). It returns an error only for invalid options.
//
// Find is a thin wrapper over a throwaway Session answering one
// QuerySpec — the session's normalization is the ONLY query
// normalization path, so one-shot and session answers can never
// diverge.
func Find(g *Graph, opt Options) (*Result, error) {
	sess := NewSession(g, SessionOptions{
		Bound:            opt.Bound,
		DisableBounds:    opt.DisableBounds,
		DisableHeuristic: opt.DisableHeuristic,
		DisableReduction: opt.DisableReduction,
		Workers:          opt.Workers,
	})
	return sess.Find(QuerySpec{
		K:        opt.K,
		Delta:    opt.Delta,
		Mode:     opt.Mode,
		Deadline: opt.Deadline,
		MaxNodes: opt.MaxNodes,
	})
}

// resultFromCore converts an internal search result to the public one.
func resultFromCore(ig *graph.Graph, res *core.Result) *Result {
	out := &Result{
		Clique:     toInt(res.Clique),
		Exact:      !res.Stats.Aborted,
		UpperBound: int(res.UpperBound),
		Stats: SearchStats{
			Nodes:           res.Stats.Nodes,
			BoundChecks:     res.Stats.BoundChecks,
			BoundPrunes:     res.Stats.BoundPrunes,
			ReducedVertices: int(res.Stats.ReducedVertices),
			ReducedEdges:    int(res.Stats.ReducedEdges),
			HeuristicSize:   res.Stats.HeuristicSize,
			FrontierPriced:  res.Stats.FrontierPriced,
		},
	}
	if out.UpperBound < len(res.Clique) {
		out.UpperBound = len(res.Clique)
	}
	out.Gap = out.UpperBound - len(res.Clique)
	out.CountA, out.CountB = ig.CountAttrs(res.Clique)
	return out
}

// Heuristic runs the linear-time HeurRFC framework (Algorithm 6) and
// returns the fair clique it finds (nil if none) together with a valid
// upper bound on the maximum fair clique size.
func Heuristic(g *Graph, k, delta int) (clique []int, upperBound int, err error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("fairclique: k must be >= 1, got %d", k)
	}
	if delta < 0 {
		return nil, 0, fmt.Errorf("fairclique: delta must be >= 0, got %d", delta)
	}
	if k > math.MaxInt32 || delta > math.MaxInt32 {
		return nil, 0, fmt.Errorf("fairclique: k and delta must be <= %d, got %d and %d", math.MaxInt32, k, delta)
	}
	res := heuristic.HeurRFC(g.freeze(), int32(k), int32(delta))
	return toInt(res.Clique), int(res.UB), nil
}

// ReduceStats reports the sizes after each reduction stage: the
// vertices and edges left once the stage has run on every component of
// the degeneracy pre-prune's survivors. A component whose greedy colour
// classes cannot hold k a-vertices and k b-vertices of one clique is
// dropped before the colorful stages and counts as removed by the
// EnColorfulCore row.
type ReduceStats struct {
	Stage    string
	Vertices int
	Edges    int
}

// Reduce runs the reduction pipeline (DegeneracyPrune ->
// EnColorfulCore -> ColorfulSup -> EnColorfulSup) for the size
// constraint k and returns the surviving subgraph (vertex ids refer to
// g) plus per-stage statistics. Every (k, δ)-fair clique of g survives
// in full. The EnColorfulCore row also counts the components that a
// colour-class test removes before any colorful stage runs (see
// ReduceStats), so at k = 1, where EnColorfulCore itself keeps every
// vertex, it can read below the DegeneracyPrune row.
func Reduce(g *Graph, k int) (kept []int, stages []ReduceStats, err error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("fairclique: k must be >= 1, got %d", k)
	}
	if k > math.MaxInt32 {
		return nil, nil, fmt.Errorf("fairclique: k must be <= %d, got %d", math.MaxInt32, k)
	}
	sub, st := reduce.Pipeline(g.freeze(), int32(k))
	for _, s := range st {
		stages = append(stages, ReduceStats{Stage: s.Name, Vertices: int(s.Vertices), Edges: int(s.Edges)})
	}
	return toInt(sub.ToParent), stages, nil
}

// Enumerate returns EVERY maximum (k, delta)-relative fair clique of g
// as a ResultSet, computed by the branch-and-bound engine in
// collect-at-optimum mode (one search visits all optima). For repeated
// or dynamic workloads prefer Session.Enumerate, which caches the set
// per cell and maintains it incrementally across Apply deltas.
func Enumerate(g *Graph, k, delta int) (*ResultSet, error) {
	return NewSession(g).Enumerate(QuerySpec{K: k, Delta: delta, Kind: KindEnumerateAll})
}

// Mode selects the fairness model of a session query, following Pan et
// al.'s taxonomy: the relative model takes an explicit δ, the weak
// model drops the balance constraint (δ = |V|), the strong model
// demands exactly equal counts (δ = 0).
type Mode int

// Session query modes.
const (
	// ModeRelative is the paper's (k, δ)-relative fair clique.
	ModeRelative Mode = iota
	// ModeWeak requires only >= k vertices of each attribute.
	ModeWeak
	// ModeStrong requires exactly equal attribute counts (>= k each).
	ModeStrong
)

// QueryKind selects a query's result shape; see QuerySpec.Kind.
type QueryKind = session.QueryKind

// Query kinds.
const (
	// KindFind (the zero value) asks for one maximum fair clique,
	// answered by Session.Find / Session.FindGrid.
	KindFind = session.KindFind
	// KindEnumerateAll asks for every maximum fair clique, answered by
	// Session.Enumerate as a ResultSet.
	KindEnumerateAll = session.KindEnumerateAll
	// KindTopR asks for a diversified subset of R maximum fair cliques
	// chosen greedily for distinct-vertex coverage, answered by
	// Session.Enumerate.
	KindTopR = session.KindTopR
)

// QuerySpec is one cell of a session workload: the per-attribute
// minimum K, the fairness Mode, and — for ModeRelative — the balance
// tolerance Delta (ignored by the other modes). Kind selects the
// result shape (one clique, the full optimum set, or a diversified
// top-R subset). Deadline and MaxNodes optionally budget this cell
// alone: a budget-aborted answer carries a certified UpperBound/Gap
// and is never reused to seed or bound other cells.
type QuerySpec struct {
	K     int
	Delta int
	Mode  Mode
	// Kind is the result shape (default KindFind). Find/FindGrid
	// answer only KindFind; Enumerate answers the other kinds.
	Kind QueryKind
	// R is the result budget for KindTopR (ignored otherwise).
	R int
	// Deadline, when positive, is this query's wall-clock budget.
	Deadline time.Duration
	// MaxNodes, when positive, caps this query's branch nodes; the
	// tighter of this and SessionOptions.MaxNodes wins.
	MaxNodes int64
}

// ResultSet is the outcome of an enumeration query (Enumerate or
// Session.Enumerate): every maximum fair clique of the cell, or the
// diversified top-R subset for KindTopR.
type ResultSet struct {
	// Cliques holds the result cliques, each ascending-sorted, the set
	// deduplicated and in lexicographic order. Empty when no fair
	// clique exists.
	Cliques [][]int
	// Counts[i] = {CountA, CountB} of Cliques[i].
	Counts [][2]int
	// Size is the maximum fair clique size (0 when none exists).
	Size int
	// Exact is false only if a budget (MaxNodes or Deadline) aborted
	// the search: Cliques then holds only the optimum-sized cliques
	// found within the budget, and — like every inexact answer — the
	// set is never cached, pooled, or used to bound later queries.
	Exact bool
	// UpperBound is a certified upper bound on the maximum fair clique
	// size; equal to Size whenever Exact. Gap = UpperBound - Size.
	UpperBound int
	Gap        int
	// Stats describes the search effort (zero when the answer came
	// from the session's enumeration cache).
	Stats SearchStats
}

// SessionOptions configures a Session. The zero value runs all
// reductions, heuristic seeding, a serial search and the advanced bound
// group alone (UBAdvanced); unlike DefaultOptions it does not add
// UBColorfulDegeneracy. The per-query parameters live in QuerySpec.
type SessionOptions struct {
	// Bound selects the extra upper bound. The zero value is
	// UBAdvanced; set UBColorfulDegeneracy to match DefaultOptions.
	Bound UpperBound
	// DisableBounds, DisableHeuristic and DisableReduction mirror the
	// same Options knobs, applied to every query of the session.
	DisableBounds    bool
	DisableHeuristic bool
	DisableReduction bool
	// MaxNodes caps each individual query's branch nodes (0 =
	// unlimited). Capped (inexact) answers are never reused to bound or
	// seed later queries.
	MaxNodes int64
	// Workers is the branching parallelism of each query. With
	// Workers > 1 every Find, FindGrid cell, Enumerate and post-Apply
	// requery splits its search across Workers goroutines, exactly as
	// Options.Workers does for Find, and all of them have returned when
	// the call does.
	Workers int
}

// SessionStats aggregates the work of all queries a Session has
// answered, exposing what the amortization actually saved. Its JSON
// keys, as GET /v1/graphs/{name} sends them in session_stats, are the
// snake_case field names; the five always-0 deprecated counters are
// left out.
type SessionStats struct {
	// Queries is the number of cells answered: Find calls and FindGrid
	// cells, plus every enumeration that ran a collect search (an
	// Enumerate call, or a cached set an Apply re-enumerated).
	// Enumerate calls answered from the enumeration cache are not
	// counted.
	Queries int64 `json:"queries"`
	// Nodes, BoundChecks and BoundPrunes sum the per-query search
	// stats.
	Nodes       int64 `json:"nodes"`
	BoundChecks int64 `json:"bound_checks"`
	BoundPrunes int64 `json:"bound_prunes"`
	// ReductionBuilds counts reduction-pipeline runs; ReductionChained
	// is how many of them ran on a smaller-k snapshot instead of the
	// original graph; ReductionReuses counts queries served by an
	// already-built reduction and successor-mask set.
	ReductionBuilds  int64 `json:"reduction_builds"`
	ReductionChained int64 `json:"reduction_chained"`
	ReductionReuses  int64 `json:"reduction_reuses"`
	// WarmStarts counts queries seeded from a previously found clique;
	// DominanceSkips counts queries answered with zero branching
	// because a previous answer already proved the optimum.
	WarmStarts     int64 `json:"warm_starts"`
	DominanceSkips int64 `json:"dominance_skips"`
	// Applies counts graph deltas applied to the session; Epoch is the
	// current graph generation (0 before the first Apply).
	Applies int64 `json:"applies"`
	Epoch   int64 `json:"epoch"`
	// SnapshotsPatched and SnapshotsReused count per-k reduced
	// subgraphs that an Apply re-reduced on the delta's dirty region
	// only, versus kept as they were. SnapshotsRippled counts ones a
	// delete-only delta re-peeled at the fairness floor without
	// re-running the reduction.
	SnapshotsPatched int64 `json:"snapshots_patched"`
	SnapshotsReused  int64 `json:"snapshots_reused"`
	SnapshotsRippled int64 `json:"snapshots_rippled"`
	// CompPrepsReused counts built per-component search machinery
	// (peel-rank relabeling, successor rows, worker arenas) that an
	// Apply kept because the reduced subgraph it belongs to was kept
	// as it was. A changed reduced subgraph builds its machinery
	// afresh on its next search.
	CompPrepsReused int64 `json:"comp_preps_reused"`
	// PoolRetained and PoolDropped count warm-start cliques that
	// survived an Apply versus ones destroyed by its deletions.
	PoolRetained int64 `json:"pool_retained"`
	PoolDropped  int64 `json:"pool_dropped"`
	// Steals, WorkerReleases and PoolSearches are always 0, and are not
	// sent over HTTP.
	//
	// Deprecated: the session-lifetime worker pool they counted was
	// removed because it never paid for itself in measurement; every
	// parallel query now splits its own search. The fields stay because
	// the benchmark harness (perfbench/layers.go, whose files define the
	// benchmark) reads them.
	Steals         int64 `json:"-"`
	WorkerReleases int64 `json:"-"`
	PoolSearches   int64 `json:"-"`
	// SpeculativeStarts and SpeculativeWins are always 0, and are not
	// sent over HTTP.
	//
	// Deprecated: FindGrid no longer speculates cells ahead of their
	// dominance predecessor — the look-ahead never paid for itself in
	// measurement — so nothing is counted here. The fields stay because
	// the benchmark harness (perfbench/layers.go, whose files define
	// the benchmark) reads both.
	SpeculativeStarts int64 `json:"-"`
	SpeculativeWins   int64 `json:"-"`
	// BoundInjections and SeedInjections count live broadcasts of a
	// solved cell's proven bound / incumbent clique into searches still
	// running on the same graph generation.
	BoundInjections int64 `json:"bound_injections"`
	SeedInjections  int64 `json:"seed_injections"`
	// Enumerations counts collect searches: Session.Enumerate calls the
	// per-epoch enumeration cache did not answer, and cached sets an
	// Apply re-enumerated; EnumCacheHits counts Enumerate calls the
	// cache answered. EnumMaintained and EnumRecomputed count cached
	// sets an Apply carried forward by survivor filtering versus
	// re-enumerated from scratch.
	Enumerations   int64 `json:"enumerations"`
	EnumCacheHits  int64 `json:"enum_cache_hits"`
	EnumMaintained int64 `json:"enum_maintained"`
	EnumRecomputed int64 `json:"enum_recomputed"`
}

// Session prepares a graph — CSR, reduction snapshots per k, peel-rank
// relabeling, per-component flat successor rows, attribute
// histograms — and answers any number of (k, δ, mode) queries against
// it without repeating that work. Queries also warm-start each other:
// every exact answer seeds the incumbent of later compatible queries
// and upper-bounds stricter cells through monotonicity (opt(k, δ) <=
// opt(k', δ') for k' <= k, δ' >= δ), so a grid of related queries
// costs far less than independent Find calls.
//
// A Session is dynamic: Apply mutates its graph with a batched Delta
// and invalidates only the prepared state the delta touches —
// untouched components keep their reduction snapshots, a reduction
// the delta cannot change keeps its search machinery, surviving
// answers keep seeding and bounding, and a requery after a local
// delta typically costs a small fraction of a fresh NewSession. The
// Session snapshots the public Graph at creation: later mutations of
// the *Graph object* are not observed; mutate through Apply instead.
//
// A Session is safe for concurrent use, including queries racing an
// Apply: in-flight queries finish race-free on the graph generation
// they started on, queries issued after Apply returns see the new
// graph. With Workers > 1 each query splits its own search across
// the workers; a Session keeps no goroutine between queries.
type Session struct {
	inner *session.Session
}

// NewSession freezes g for repeated querying. At most one
// SessionOptions value may be supplied; none means defaults.
//
// The session snapshots g at this call and never looks at the Graph
// object again: mutating g afterwards (AddVertex / SetAttr / AddEdge)
// does NOT affect the session, whose answers keep describing the
// snapshot — there is no error and no divergence warning, by design,
// because the builder-shaped Graph and the live Session are separate
// lifecycles. Mutate the session's graph through Session.Apply; use
// the Graph mutators only to build the next snapshot for a future
// NewSession or Find. TestSessionSnapshotSemantics pins this contract.
func NewSession(g *Graph, opts ...SessionOptions) *Session {
	var o SessionOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return &Session{
		inner: session.New(g.freeze(), session.Options{
			UseBounds:     !o.DisableBounds,
			Extra:         o.Bound,
			UseHeuristic:  !o.DisableHeuristic,
			SkipReduction: o.DisableReduction,
			MaxNodes:      o.MaxNodes,
			Workers:       o.Workers,
		}),
	}
}

// normalize maps a QuerySpec to the internal (k, δ) cell. Weak cells
// resolve their δ (= current vertex count) inside the engine at query
// time, so they stay correct across Apply.
func (s *Session) normalize(spec QuerySpec) (session.Query, error) {
	if spec.K < 1 {
		return session.Query{}, fmt.Errorf("fairclique: k must be >= 1, got %d", spec.K)
	}
	if spec.K > math.MaxInt32 {
		return session.Query{}, fmt.Errorf("fairclique: k must be <= %d, got %d", math.MaxInt32, spec.K)
	}
	if spec.MaxNodes < 0 {
		return session.Query{}, fmt.Errorf("fairclique: max nodes must be >= 0, got %d", spec.MaxNodes)
	}
	if spec.Deadline < 0 {
		return session.Query{}, fmt.Errorf("fairclique: deadline must be >= 0, got %v", spec.Deadline)
	}
	q := session.Query{K: int32(spec.K), Kind: spec.Kind, R: spec.R, MaxNodes: spec.MaxNodes}
	if spec.Deadline > 0 {
		q.Deadline = time.Now().Add(spec.Deadline)
	}
	switch spec.Mode {
	case ModeRelative:
		if spec.Delta < 0 {
			return session.Query{}, fmt.Errorf("fairclique: delta must be >= 0, got %d", spec.Delta)
		}
		if spec.Delta > math.MaxInt32 {
			return session.Query{}, fmt.Errorf("fairclique: delta must be <= %d, got %d", math.MaxInt32, spec.Delta)
		}
		q.Delta = int32(spec.Delta)
		return q, nil
	case ModeWeak:
		q.Weak = true
		return q, nil
	case ModeStrong:
		q.Delta = 0
		return q, nil
	default:
		return session.Query{}, fmt.Errorf("fairclique: unknown mode %d", spec.Mode)
	}
}

// Delta is a batched mutation of a Session's graph: vertex appends,
// vertex deletions (the id stays valid but isolated — ids are never
// recycled, so cliques and results remain comparable across deltas),
// edge insertions and edge deletions. Inserting a present edge or
// deleting an absent one is a silent no-op; contradictory operations
// (the same edge added and deleted, an added edge incident to a
// deleted vertex) are rejected.
type Delta struct {
	// AddVertices appends vertices with the given attributes; they
	// receive ids N(), N()+1, ... and may appear in AddEdges.
	AddVertices []Attr
	// AddEdges inserts undirected edges.
	AddEdges [][2]int
	// DelEdges removes undirected edges.
	DelEdges [][2]int
	// DelVertices drops all edges incident to these vertices.
	DelVertices []int
}

// ApplyStats reports what one Apply invalidated and what it kept.
type ApplyStats struct {
	// Epoch is the graph generation the delta created (1, 2, ...).
	Epoch int64
	// InsertedEdges, DeletedEdges and NewVertices are the delta's
	// effective size after deduplication against the previous graph.
	InsertedEdges, DeletedEdges, NewVertices int
	// SnapshotsPatched and SnapshotsReused count per-k reduced
	// subgraphs re-reduced on the dirty region vs kept as they were;
	// SnapshotsRippled counts ones a delete-only delta re-peeled.
	SnapshotsPatched, SnapshotsReused int64
	SnapshotsRippled                  int64
	// CompPrepsReused counts the built per-component search machinery
	// of the reduced subgraphs kept as they were (SnapshotsReused).
	CompPrepsReused int64
	// PoolRetained and PoolDropped count surviving vs destroyed
	// warm-start cliques.
	PoolRetained, PoolDropped int64
	// EnumDiffs reports, per enumeration cell cached by a previous
	// Session.Enumerate, which cliques this delta destroyed and which
	// it created — the epoch diff of the incrementally maintained
	// result sets.
	EnumDiffs []EnumDiff
}

// EnumDiff is one cached enumeration cell's epoch diff across an
// Apply: how the delta changed its maximum-fair-clique set.
type EnumDiff struct {
	// K and Mode identify the cell; Delta is meaningful for
	// ModeRelative (strong cells report Delta 0).
	K, Delta int
	Mode     Mode
	// Size is the cell's new optimum (0 when Dropped or none exists).
	Size int
	// Died are old-set cliques the delta destroyed; Born are ones it
	// created. Each ascending-sorted.
	Died, Born [][]int
	// Recomputed is set when the cell was re-enumerated from scratch;
	// unset when survivor filtering maintained it without a search.
	Recomputed bool
	// Dropped is set when a re-enumeration under the session's budgets
	// came back inexact: the cell left the cache (the next Enumerate
	// rebuilds it) and Born/Size are meaningless.
	Dropped bool
}

// Apply mutates the session's graph in place and invalidates only the
// prepared state the delta touches. Answers returned by Find/FindGrid
// after Apply are exactly those of a fresh session over the mutated
// graph; queries already in flight complete against the pre-delta
// graph. Concurrent Apply calls are serialized. It returns what was
// invalidated versus retained, for observability.
func (s *Session) Apply(d Delta) (ApplyStats, error) {
	gd := &graph.Delta{AddVertices: d.AddVertices}
	var err error
	if gd.AddEdges, err = toEdge32(d.AddEdges); err != nil {
		return ApplyStats{}, err
	}
	if gd.DelEdges, err = toEdge32(d.DelEdges); err != nil {
		return ApplyStats{}, err
	}
	if gd.DelVertices, err = toInt32(d.DelVertices); err != nil {
		return ApplyStats{}, err
	}
	ast, err := s.inner.Apply(gd)
	if err != nil {
		return ApplyStats{}, fmt.Errorf("fairclique: %w", err)
	}
	return ApplyStats{
		Epoch:            ast.Epoch,
		InsertedEdges:    ast.InsertedEdges,
		DeletedEdges:     ast.DeletedEdges,
		NewVertices:      ast.NewVertices,
		SnapshotsPatched: ast.SnapshotsPatched,
		SnapshotsReused:  ast.SnapshotsReused,
		SnapshotsRippled: ast.SnapshotsRippled,
		CompPrepsReused:  ast.CompPrepsReused,
		PoolRetained:     ast.PoolRetained,
		PoolDropped:      ast.PoolDropped,
		EnumDiffs:        enumDiffsFromInternal(ast.EnumDiffs),
	}, nil
}

func enumDiffsFromInternal(ds []session.EnumDiff) []EnumDiff {
	if len(ds) == 0 {
		return nil
	}
	out := make([]EnumDiff, len(ds))
	for i, d := range ds {
		mode := ModeRelative
		if d.Weak {
			mode = ModeWeak
		}
		out[i] = EnumDiff{
			K:          int(d.K),
			Delta:      int(d.Delta),
			Mode:       mode,
			Size:       int(d.Size),
			Died:       cliquesToInt(d.Died),
			Born:       cliquesToInt(d.Born),
			Recomputed: d.Recomputed,
			Dropped:    d.Dropped,
		}
	}
	return out
}

func cliquesToInt(cs [][]int32) [][]int {
	if len(cs) == 0 {
		return nil
	}
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = toInt(c)
	}
	return out
}

// N returns the current vertex count of the session's graph (it grows
// with Delta.AddVertices; deletions never shrink it).
func (s *Session) N() int { return int(s.inner.Graph().N()) }

// M returns the current edge count of the session's graph.
func (s *Session) M() int { return int(s.inner.Graph().M()) }

func toEdge32(es [][2]int) ([][2]int32, error) {
	out := make([][2]int32, len(es))
	for i, e := range es {
		u, err := id32(e[0])
		if err != nil {
			return nil, err
		}
		v, err := id32(e[1])
		if err != nil {
			return nil, err
		}
		out[i] = [2]int32{u, v}
	}
	return out, nil
}

// Find answers one query on the warm session. The result is identical
// (in size and validity) to an independent Find call with the same K,
// Delta and Mode on the same graph, but reuses the session's prepared
// state and prior answers.
func (s *Session) Find(spec QuerySpec) (*Result, error) {
	q, err := s.normalize(spec)
	if err != nil {
		return nil, err
	}
	res, err := s.inner.Find(q)
	if err != nil {
		return nil, err
	}
	// Vertex ids are stable across Apply (appends only), so the latest
	// graph is always valid for attribute accounting.
	return resultFromCore(s.inner.Graph(), res), nil
}

// Enumerate answers an enumeration query on the warm session: every
// maximum fair clique of spec's cell (KindEnumerateAll, or KindFind
// for convenience), or the diversified top-R subset (KindTopR). Exact
// sets are cached on the current graph generation and maintained
// incrementally by Apply, so repeating the query after a delta is
// usually free; Deadline/MaxNodes make the answer anytime (Exact
// false, certified UpperBound, quarantined from every cache).
func (s *Session) Enumerate(spec QuerySpec) (*ResultSet, error) {
	q, err := s.normalize(spec)
	if err != nil {
		return nil, err
	}
	if q.Kind == session.KindFind {
		q.Kind = session.KindEnumerateAll
	}
	rs, err := s.inner.Enumerate(q)
	if err != nil {
		return nil, err
	}
	return resultSetFromInternal(rs), nil
}

// resultSetFromInternal converts the session layer's ResultSet to the
// public int-typed one.
func resultSetFromInternal(rs *session.ResultSet) *ResultSet {
	out := &ResultSet{
		Cliques:    make([][]int, len(rs.Cliques)),
		Counts:     make([][2]int, len(rs.Cliques)),
		Size:       int(rs.Size),
		Exact:      rs.Exact,
		UpperBound: int(rs.UpperBound),
		Stats: SearchStats{
			Nodes:           rs.Stats.Nodes,
			BoundChecks:     rs.Stats.BoundChecks,
			BoundPrunes:     rs.Stats.BoundPrunes,
			ReducedVertices: int(rs.Stats.ReducedVertices),
			ReducedEdges:    int(rs.Stats.ReducedEdges),
			HeuristicSize:   rs.Stats.HeuristicSize,
			FrontierPriced:  rs.Stats.FrontierPriced,
		},
	}
	for i, c := range rs.Cliques {
		out.Cliques[i] = toInt(c)
		out.Counts[i] = [2]int{int(rs.Counts[i][0]), int(rs.Counts[i][1])}
	}
	if out.UpperBound < out.Size {
		out.UpperBound = out.Size
	}
	out.Gap = out.UpperBound - out.Size
	return out
}

// FindGrid answers a grid of cells, returning results aligned with
// specs. Cells run one after another in the order that maximizes reuse
// (k ascending, δ descending), and with Workers > 1 each cell's search
// is split across the workers; every cell's result is exactly what an
// independent Find of that cell would return.
func (s *Session) FindGrid(specs []QuerySpec) ([]*Result, error) {
	qs := make([]session.Query, len(specs))
	for i, spec := range specs {
		q, err := s.normalize(spec)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	rs, err := s.inner.FindGrid(qs)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(rs))
	for i, r := range rs {
		out[i] = resultFromCore(s.inner.Graph(), r)
	}
	return out, nil
}

// Stats reports the session's aggregated effort and amortization
// counters.
func (s *Session) Stats() SessionStats {
	st := s.inner.Stats()
	return SessionStats{
		Queries:          st.Queries,
		Nodes:            st.Nodes,
		BoundChecks:      st.BoundChecks,
		BoundPrunes:      st.BoundPrunes,
		ReductionBuilds:  st.ReductionBuilds,
		ReductionChained: st.ReductionChained,
		ReductionReuses:  st.ReductionReuses,
		WarmStarts:       st.WarmStarts,
		DominanceSkips:   st.DominanceSkips,
		Applies:          st.Applies,
		Epoch:            st.Epoch,
		SnapshotsPatched: st.SnapshotsPatched,
		SnapshotsReused:  st.SnapshotsReused,
		SnapshotsRippled: st.SnapshotsRippled,
		CompPrepsReused:  st.CompPrepsReused,
		PoolRetained:     st.PoolRetained,
		PoolDropped:      st.PoolDropped,

		SpeculativeStarts: st.SpeculativeStarts,
		SpeculativeWins:   st.SpeculativeWins,
		BoundInjections:   st.BoundInjections,
		SeedInjections:    st.SeedInjections,
		Enumerations:      st.Enumerations,
		EnumCacheHits:     st.EnumCacheHits,
		EnumMaintained:    st.EnumMaintained,
		EnumRecomputed:    st.EnumRecomputed,
	}
}

func toInt32(s []int) ([]int32, error) {
	out := make([]int32, len(s))
	for i, v := range s {
		id, err := id32(v)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

// id32 narrows a vertex id to the engine's int32. An id beyond int32
// names no vertex of any graph; an unchecked conversion would wrap it
// onto another vertex.
func id32(v int) (int32, error) {
	if int(int32(v)) != v {
		return 0, fmt.Errorf("fairclique: vertex id %d out of range", v)
	}
	return int32(v), nil
}

// mustID32 is id32 for the Graph methods, which panic on an id beyond
// int32 as they do on any id >= N.
func mustID32(v int) int32 {
	id, err := id32(v)
	if err != nil {
		panic(err)
	}
	return id
}

func toInt(s []int32) []int {
	if s == nil {
		return nil
	}
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}
