package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fairclique"
)

// ErrFlushFailed wraps a write-buffer flush whose Session.Apply failed.
// Every buffered op is validated before it is accepted, so this is a
// server-side invariant break, never the fault of the request that
// happened to trigger the flush — handlers map it to a 5xx.
var ErrFlushFailed = errors.New("serve: write-buffer flush failed")

// Registry is the multi-tenant graph table: name → live entry. Entries
// are independent — each has its own Session, write buffer, result
// cache and epoch gauge — so load on one graph never blocks another.
type Registry struct {
	cfg Config

	mu     sync.RWMutex
	graphs map[string]*GraphEntry
}

// NewRegistry returns an empty registry configured by cfg.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, graphs: make(map[string]*GraphEntry)}
}

// Create registers g under name, wrapping it in a fresh Session. It
// fails if the name is taken.
func (r *Registry) Create(name string, g *fairclique.Graph) (*GraphEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: graph name must be non-empty")
	}
	e := &GraphEntry{
		name:   name,
		sess:   fairclique.NewSession(g, fairclique.SessionOptions{Workers: r.cfg.Workers}),
		cfg:    r.cfg,
		cache:  make(map[cacheKey]*fairclique.Result),
		ecache: make(map[cacheKey]*fairclique.ResultSet),
		live:   make(map[int64]int),
	}
	e.buf.reset()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.graphs[name]; dup {
		return nil, fmt.Errorf("serve: graph %q already exists", name)
	}
	r.graphs[name] = e
	return e, nil
}

// Get returns the named entry.
func (r *Registry) Get(name string) (*GraphEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	return e, ok
}

// Delete drops the named entry. Queries already running against it
// finish normally; the entry becomes unreachable.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.graphs[name]
	delete(r.graphs, name)
	return ok
}

// Close does nothing: sessions hold no goroutine or other resource
// between queries. It stays because callers, the benchmark harness
// among them, still call it at shutdown.
func (r *Registry) Close() {}

// Names returns the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.graphs))
	for n := range r.graphs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// cacheKey identifies one cached answer. The epoch makes correctness
// trivial: a flush bumps the session epoch, so entries of the old
// generation can never be returned for the new graph. kind and r are
// zero for Find cells; they distinguish enumeration shapes (the full
// set vs each top-r cut) in the enumeration cache.
type cacheKey struct {
	epoch int64
	k     int
	delta int
	mode  fairclique.Mode
	kind  fairclique.QueryKind
	r     int
}

// GraphEntry is one tenant: a live Session plus the serving state
// wrapped around it.
type GraphEntry struct {
	name string
	sess *fairclique.Session
	cfg  Config

	// mu serializes buffer access and flushes. Queries take it only
	// for the (cheap) buffered-check before searching.
	mu      sync.Mutex
	buf     writeBuffer
	flushed atomic.Int64 // flush count == epoch churn
	epoch   atomic.Int64 // session epoch after the last flush

	cacheMu     sync.Mutex
	cache       map[cacheKey]*fairclique.Result
	ecache      map[cacheKey]*fairclique.ResultSet
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	gaugeMu sync.Mutex
	live    map[int64]int // epoch → in-flight queries pinned to it
}

// Name returns the registry key.
func (e *GraphEntry) Name() string { return e.name }

// Session exposes the live session (info/stats endpoints).
func (e *GraphEntry) Session() *fairclique.Session { return e.sess }

// Epoch returns the last flushed epoch.
func (e *GraphEntry) Epoch() int64 { return e.epoch.Load() }

// Flushes returns how many buffer flushes (epoch bumps) happened.
func (e *GraphEntry) Flushes() int64 { return e.flushed.Load() }

// CacheStats returns hits and misses of the entry's result cache.
func (e *GraphEntry) CacheStats() (hits, misses int64) {
	return e.cacheHits.Load(), e.cacheMisses.Load()
}

// BufferedOps returns the current size of the write buffer.
func (e *GraphEntry) BufferedOps() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buf.ops
}

// writeBuffer coalesces mutations between queries into one Delta.
// Semantics are sequential: ops are remembered last-op-wins per edge,
// which reproduces the final state of applying them one by one, and
// combinations a single batched Delta cannot express force a flush
// before buffering (see bufferOps).
type writeBuffer struct {
	addV  []fairclique.Attr
	edges map[[2]int]bool // canonical (u<v) → insert? (false = delete)
	delV  map[int]bool
	ops   int // raw operations absorbed since the last flush
}

func (b *writeBuffer) reset() {
	b.addV = nil
	b.edges = make(map[[2]int]bool)
	b.delV = make(map[int]bool)
	b.ops = 0
}

func (b *writeBuffer) empty() bool { return b.ops == 0 }

// toDelta materializes the coalesced buffer as one batched Delta.
func (b *writeBuffer) toDelta() fairclique.Delta {
	d := fairclique.Delta{AddVertices: b.addV}
	for e, add := range b.edges {
		if add {
			d.AddEdges = append(d.AddEdges, [2]int{e[0], e[1]})
		} else {
			d.DelEdges = append(d.DelEdges, [2]int{e[0], e[1]})
		}
	}
	for v := range b.delV {
		d.DelVertices = append(d.DelVertices, v)
	}
	return d
}

// Op is one streamed mutation operation (the parsed form of both the
// JSON delta body and the text op stream).
type Op struct {
	Kind OpKind
	U, V int             // edge endpoints, or U = vertex id for OpDelVertex
	Attr fairclique.Attr // for OpAddVertex
}

// OpKind enumerates mutation operations.
type OpKind int

// Mutation operations.
const (
	OpAddEdge OpKind = iota
	OpDelEdge
	OpAddVertex
	OpDelVertex
)

func canonical(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// MutateResult reports what a batch of buffered ops did.
type MutateResult struct {
	// BufferedOps is the buffer size after the batch.
	BufferedOps int
	// Flushes is how many intermediate flushes the batch forced
	// (sequencing constraints or the MaxBufferedOps cap).
	Flushes int
	// NewVertexIDs are the ids assigned to OpAddVertex ops, in order.
	NewVertexIDs []int
	// Epoch is the entry's epoch after the batch (it moves only if a
	// flush happened).
	Epoch int64
}

// Mutate buffers a batch of operations, flushing mid-batch only when
// sequential semantics demand it or the buffer cap is hit. The whole
// batch is validated against the (buffer-adjusted) vertex universe
// before anything is buffered, so the batch is atomic with respect to
// rejection: a validation error means NO op was absorbed and the
// buffer is exactly as it was, and a malformed mutation is a client
// error here, never a failed Apply later that would dump an innocent
// bystander's buffered work. An error after validation passed wraps
// ErrFlushFailed (a server-side invariant break, not a client error).
func (e *GraphEntry) Mutate(ops []Op) (MutateResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res MutateResult
	if err := e.validateLocked(ops); err != nil {
		return res, err
	}
	for _, op := range ops {
		switch op.Kind {
		case OpAddVertex:
			res.NewVertexIDs = append(res.NewVertexIDs, e.sess.N()+len(e.buf.addV))
			e.buf.addV = append(e.buf.addV, op.Attr)
			e.buf.ops++
		case OpAddEdge:
			if e.buf.delV[op.U] || e.buf.delV[op.V] {
				// Sequentially this edge is re-attached AFTER the
				// vertex deletion dropped all incident edges; one
				// batched delta cannot express that order, so flush
				// the deletion first.
				if err := e.flushLocked(); err != nil {
					return res, err
				}
				res.Flushes++
			}
			e.buf.edges[canonical(op.U, op.V)] = true
			e.buf.ops++
		case OpDelEdge:
			if op.U >= e.sess.N() || op.V >= e.sess.N() {
				// An endpoint is buffer-only, so the edge can exist
				// only as a buffered insertion — and a batched Delta
				// cannot delete an edge at a same-delta vertex
				// (ApplyDelta rejects it). Cancel the buffered
				// insertion instead; with no insertion buffered the
				// edge has never existed and the delete is the same
				// no-op it would be in the session graph.
				delete(e.buf.edges, canonical(op.U, op.V))
			} else {
				e.buf.edges[canonical(op.U, op.V)] = false
			}
			e.buf.ops++
		case OpDelVertex:
			if touched := e.bufTouchesVertex(op.U); touched || op.U >= e.sess.N() {
				// The vertex has buffered edge ops (they happened
				// BEFORE this deletion, so they must land first) or is
				// itself still buffer-only.
				if err := e.flushLocked(); err != nil {
					return res, err
				}
				res.Flushes++
			}
			e.buf.delV[op.U] = true
			e.buf.ops++
		}
		if e.buf.ops >= e.cfg.MaxBufferedOps {
			if err := e.flushLocked(); err != nil {
				return res, err
			}
			res.Flushes++
		}
	}
	res.BufferedOps = e.buf.ops
	res.Epoch = e.epoch.Load()
	return res, nil
}

// validateLocked checks the whole batch against the vertex universe
// each op will see — session vertices plus buffered additions plus
// preceding in-batch additions — without touching the buffer. The
// simulated count stays correct across mid-batch flushes because a
// flush moves buf.addV into the session, leaving the sum
// sess.N()+len(buf.addV) unchanged (deleted vertex ids are never
// recycled or compacted). e.mu must be held.
func (e *GraphEntry) validateLocked(ops []Op) error {
	n := e.sess.N() + len(e.buf.addV)
	for _, op := range ops {
		switch op.Kind {
		case OpAddVertex:
			n++
		case OpAddEdge, OpDelEdge:
			if op.U == op.V {
				return fmt.Errorf("serve: self-loop %d-%d rejected", op.U, op.V)
			}
			if op.U < 0 || op.V < 0 || op.U >= n || op.V >= n {
				return fmt.Errorf("serve: edge %d-%d endpoint outside the %d-vertex graph", op.U, op.V, n)
			}
		case OpDelVertex:
			if op.U < 0 || op.U >= n {
				return fmt.Errorf("serve: vertex %d outside the %d-vertex graph", op.U, n)
			}
		default:
			return fmt.Errorf("serve: unknown op kind %d", op.Kind)
		}
	}
	return nil
}

// bufTouchesVertex reports whether a buffered edge op involves v.
func (e *GraphEntry) bufTouchesVertex(v int) bool {
	for edge := range e.buf.edges {
		if edge[0] == v || edge[1] == v {
			return true
		}
	}
	return false
}

// Flush force-applies the write buffer (no-op when empty) and returns
// the resulting epoch.
func (e *GraphEntry) Flush() (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.flushLocked(); err != nil {
		return e.epoch.Load(), err
	}
	return e.epoch.Load(), nil
}

// flushLocked applies the buffered delta as one Session.Apply and
// evicts exactly this graph's stale cache entries. e.mu must be held.
func (e *GraphEntry) flushLocked() error {
	if e.buf.empty() {
		return nil
	}
	d := e.buf.toDelta()
	ast, err := e.sess.Apply(d)
	if err != nil {
		// The buffer is already validated op by op, so an Apply error
		// is a server-side invariant break; surface it loudly — and
		// keep the acknowledged buffer intact (reset only after Apply
		// succeeds) so the failure does not silently discard writes
		// clients were already told landed.
		return fmt.Errorf("%w: graph %q: %v", ErrFlushFailed, e.name, err)
	}
	e.buf.reset()
	e.epoch.Store(ast.Epoch)
	e.flushed.Add(1)
	e.cacheMu.Lock()
	for k := range e.cache {
		if k.epoch != ast.Epoch {
			delete(e.cache, k)
		}
	}
	for k := range e.ecache {
		if k.epoch != ast.Epoch {
			delete(e.ecache, k)
		}
	}
	e.cacheMu.Unlock()
	return nil
}

// ensureFlushed is the query-side barrier: any delta buffered before
// this call is applied before the query runs, so a query never reads
// past acknowledged writes. Returns the epoch the caller should key
// its cache lookup with.
func (e *GraphEntry) ensureFlushed() (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.flushLocked(); err != nil {
		return 0, err
	}
	return e.epoch.Load(), nil
}

// gaugeAdd moves the epoch gauge: +1 when a query pinned to epoch
// starts, -1 when it finishes.
func (e *GraphEntry) gaugeAdd(epoch int64, d int) {
	e.gaugeMu.Lock()
	e.live[epoch] += d
	if e.live[epoch] <= 0 {
		delete(e.live, epoch)
	}
	e.gaugeMu.Unlock()
}

// LiveByEpoch snapshots the epoch gauge: in-flight queries per epoch.
// Entries for retired epochs are stragglers pinning old graph
// generations in session memory.
func (e *GraphEntry) LiveByEpoch() map[int64]int {
	e.gaugeMu.Lock()
	defer e.gaugeMu.Unlock()
	out := make(map[int64]int, len(e.live))
	for ep, n := range e.live {
		out[ep] = n
	}
	return out
}

// Query answers one cell, flushing the write buffer first and serving
// from the result cache when the epoch matches. cached reports a hit.
func (e *GraphEntry) Query(spec fairclique.QuerySpec) (res *fairclique.Result, cached bool, epoch int64, err error) {
	epoch, err = e.ensureFlushed()
	if err != nil {
		return nil, false, 0, err
	}
	key := cacheKey{epoch: epoch, k: spec.K, delta: spec.Delta, mode: spec.Mode}
	e.cacheMu.Lock()
	if r, ok := e.cache[key]; ok {
		e.cacheMu.Unlock()
		e.cacheHits.Add(1)
		return r, true, epoch, nil
	}
	e.cacheMu.Unlock()
	e.cacheMisses.Add(1)

	e.gaugeAdd(epoch, 1)
	defer e.gaugeAdd(epoch, -1)
	r, err := e.sess.Find(spec)
	if err != nil {
		return nil, false, epoch, err
	}
	e.storeCached(key, r)
	return r, false, epoch, nil
}

// storeCached caches r under key unless the epoch moved while the
// search ran (the answer may then describe the newer graph — it is
// still a correct response, but must not be pinned to the old key) or
// the answer is inexact (a MaxNodes-capped result must never be
// replayed as the truth).
func (e *GraphEntry) storeCached(key cacheKey, r *fairclique.Result) {
	if !r.Exact || e.epoch.Load() != key.epoch {
		return
	}
	e.cacheMu.Lock()
	if e.cacheRoomLocked() {
		e.cache[key] = r
	}
	e.cacheMu.Unlock()
}

// cacheRoomLocked reports whether the graph's two caches, Find answers
// and enumeration sets, together hold fewer than MaxCacheEntries.
// e.cacheMu must be held.
func (e *GraphEntry) cacheRoomLocked() bool {
	return len(e.cache)+len(e.ecache) < e.cfg.MaxCacheEntries
}

// Enumerate answers one enumeration cell through the same serving path
// as Query: flush barrier first, per-epoch result cache, epoch gauge
// while the search runs. Inexact (budget-aborted) sets are never
// cached — a replayed partial set would masquerade as the truth.
func (e *GraphEntry) Enumerate(spec fairclique.QuerySpec) (rs *fairclique.ResultSet, cached bool, epoch int64, err error) {
	epoch, err = e.ensureFlushed()
	if err != nil {
		return nil, false, 0, err
	}
	key := cacheKey{
		epoch: epoch, k: spec.K, delta: spec.Delta, mode: spec.Mode,
		kind: spec.Kind, r: spec.R,
	}
	e.cacheMu.Lock()
	if s, ok := e.ecache[key]; ok {
		e.cacheMu.Unlock()
		e.cacheHits.Add(1)
		return s, true, epoch, nil
	}
	e.cacheMu.Unlock()
	e.cacheMisses.Add(1)

	e.gaugeAdd(epoch, 1)
	defer e.gaugeAdd(epoch, -1)
	rs, err = e.sess.Enumerate(spec)
	if err != nil {
		return nil, false, epoch, err
	}
	if rs.Exact && e.epoch.Load() == key.epoch {
		e.cacheMu.Lock()
		if e.cacheRoomLocked() {
			e.ecache[key] = rs
		}
		e.cacheMu.Unlock()
	}
	return rs, false, epoch, nil
}

// Grid answers a batch of cells like Session.FindGrid, with the same
// flush barrier and per-cell caching: cached cells are served
// directly and only the misses are searched (as one grid, so they
// warm-start each other).
func (e *GraphEntry) Grid(specs []fairclique.QuerySpec) (res []*fairclique.Result, cachedMask []bool, epoch int64, err error) {
	epoch, err = e.ensureFlushed()
	if err != nil {
		return nil, nil, 0, err
	}
	res = make([]*fairclique.Result, len(specs))
	cachedMask = make([]bool, len(specs))
	var missSpecs []fairclique.QuerySpec
	var missIdx []int
	e.cacheMu.Lock()
	for i, spec := range specs {
		key := cacheKey{epoch: epoch, k: spec.K, delta: spec.Delta, mode: spec.Mode}
		if r, ok := e.cache[key]; ok {
			res[i], cachedMask[i] = r, true
		} else {
			missSpecs = append(missSpecs, spec)
			missIdx = append(missIdx, i)
		}
	}
	e.cacheMu.Unlock()
	e.cacheHits.Add(int64(len(specs) - len(missSpecs)))
	e.cacheMisses.Add(int64(len(missSpecs)))
	if len(missSpecs) == 0 {
		return res, cachedMask, epoch, nil
	}

	e.gaugeAdd(epoch, 1)
	defer e.gaugeAdd(epoch, -1)
	found, err := e.sess.FindGrid(missSpecs)
	if err != nil {
		return nil, nil, epoch, err
	}
	for j, r := range found {
		i := missIdx[j]
		res[i] = r
		spec := specs[i]
		e.storeCached(cacheKey{epoch: epoch, k: spec.K, delta: spec.Delta, mode: spec.Mode}, r)
	}
	return res, cachedMask, epoch, nil
}
