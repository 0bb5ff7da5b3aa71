// Package sched is the session-lifetime work-stealing scheduler: a
// Pool is one shared donation queue plus a hungry counter spanning
// every search that branches against it, so an executor freed by one
// search (a finished grid cell, a dominance skip answered with zero
// branching) immediately steals frontier subtrees donated by searches
// that are still running — even searches with completely different
// (k, δ, mode) parameters, and even searches issued minutes apart: a
// Pool is built once per session and its executors persist across
// Find, FindGrid and post-Apply requeries until the owner closes it.
//
// The package deliberately knows nothing about cliques: work items are
// opaque Tasks that carry their own execution state (internal/core's
// donated subtree nodes implement Task). What sched owns is the
// donation queue, the demand signal busy workers poll before shipping
// a subtree, and the termination ledger that lets a search prove all
// of its outstanding donated work has finished.
//
// The queue is one slice popped LIFO: an executor takes the most
// recently donated subtree, the one whose frontier buffers are still
// hot in the cache that produced them.
//
// # The ledger
//
// Every search runs under a Scope. A Scope's activity count is
//
//	active = branching executors (Enter/Exit)
//	       + live tasks (Submit until retired after running, queued or
//	         running)
//
// and the search is complete exactly when active reaches zero: nobody
// is expanding nodes for it and no donated subtree of it is queued or
// in flight anywhere in the pool. Tasks are retired by the executor
// that ran them, so the ledger stays correct no matter which search's
// executor a task lands on. A popped task stays counted until it is
// retired — a driver must never observe active == 0 while another
// executor is still inside one of its subtrees.
//
// # Executor roles
//
//   - A driver branches its own search and donates subtrees whenever
//     Hungry() reports spare capacity; after its own pass it calls
//     Drain, which helps execute pool tasks (its own or other
//     searches') until its scope's ledger is empty.
//   - A released executor calls Serve, which executes tasks from any
//     search until Close. Under the session-lifetime pool, Serve is
//     each persistent worker's whole life: it parks between queries
//     and wakes whenever any search — a grid cell, a single Find, a
//     post-Apply requery — donates work.
//
// Waiting executors (in Drain or Serve) raise the hungry counter;
// branch-hot donation checks are a single atomic load (Hungry).
package sched

import (
	"sync"
	"sync/atomic"
)

// Task is one donated unit of work: a self-contained subtree frontier
// node that any executor can run. Implementations are recycled by
// their owners after Run returns, so callers must capture TaskScope
// before Run and never touch the task afterwards.
type Task interface {
	// Run executes the work item on the calling goroutine and recycles
	// the task's buffers.
	Run()
	// TaskScope is the search the item belongs to, for the ledger.
	TaskScope() *Scope
}

// Stats is a snapshot of the pool's cross-search counters.
type Stats struct {
	// Steals counts donated tasks executed by pool executors (Serve and
	// Drain pops alike).
	Steals int64
	// CrossCellSteals counts the subset of Steals executed by an
	// executor that was not driving the task's own search — the
	// released-worker payoff the shared pool exists for.
	CrossCellSteals int64
	// Releases counts executors that entered Serve. Under a
	// session-lifetime pool each persistent executor calls Serve
	// exactly once, so a constant Releases across many queries is the
	// worker-reuse receipt.
	Releases int64
}

// Pool is one shared scheduler: the LIFO donation queue, the hungry
// counter donors poll, and the condition variable idle executors park
// on. A Pool coordinates any number of concurrent Scopes; its zero
// cost when nobody is hungry is a single atomic load per branch node.
// A Pool is built once per owner (the session) and survives across
// searches; Close ends its executors.
type Pool struct {
	hungry atomic.Int32 // executors parked waiting for work
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Task // popped LIFO from the tail
	closed bool

	steals      atomic.Int64
	crossSteals atomic.Int64
	releases    atomic.Int64
}

// NewPool returns an empty pool with no executors attached. Executors
// are whatever goroutines call Serve or Drain against it.
func NewPool() *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Hungry reports whether any executor is parked waiting for work — the
// donation check on the branching hot path. One atomic load.
func (p *Pool) Hungry() bool { return p.hungry.Load() > 0 }

// Idle reports how many executors are currently parked (the tests'
// park barrier).
func (p *Pool) Idle() int { return int(p.hungry.Load()) }

// Wanted reports whether the queue is shorter than the number of
// hungry executors, i.e. whether one more donation would actually feed
// someone. Donors call it right before paying the O(row) task-copy
// cost. Two donors racing past it can over-donate by at most
// executors-1 tasks; surplus tasks are drained by Drain/Serve, so
// nothing is lost.
func (p *Pool) Wanted() bool {
	p.mu.Lock()
	ok := int32(len(p.queue)) < p.hungry.Load() && !p.closed
	p.mu.Unlock()
	return ok
}

// Submit queues a donated task and wakes an executor. The task counts
// toward its scope's ledger until the executor that ran it retires it.
func (p *Pool) Submit(t Task) {
	sc := t.TaskScope()
	p.mu.Lock()
	sc.active++
	p.queue = append(p.queue, t)
	p.cond.Signal()
	p.mu.Unlock()
}

// Pending reports how many donated tasks are queued but not yet picked
// up (tasks already running on an executor are not counted). Test and
// observability hook; the hot paths never call it.
func (p *Pool) Pending() int {
	p.mu.Lock()
	n := len(p.queue)
	p.mu.Unlock()
	return n
}

// runNextLocked pops the most recently donated task and executes it,
// accounting it against self — the executor's own scope, or nil for a
// released Serve executor, for which every pop is a cross steal. The
// task's scope is captured before Run (Run recycles the task), and the
// lock is released around the task body. Retiring the task may empty
// its scope's ledger; Broadcast then, because Signal could wake an
// unrelated waiter while the scope's driver stays parked in Drain.
// Called with p.mu held; reports false when the queue was empty.
func (p *Pool) runNextLocked(self *Scope) bool {
	n := len(p.queue) - 1
	if n < 0 {
		return false
	}
	t := p.queue[n]
	p.queue[n] = nil
	p.queue = p.queue[:n]
	sc := t.TaskScope()
	p.steals.Add(1)
	if sc != self {
		p.crossSteals.Add(1)
	}
	p.mu.Unlock()
	t.Run()
	p.mu.Lock()
	sc.active--
	if sc.active == 0 {
		p.cond.Broadcast()
	}
	return true
}

// Close wakes every parked executor and makes Serve return once the
// queue is empty. The pool owner calls it when the session shuts down
// (Session.Close); at that point every scope's ledger is zero, so no
// task can still be queued.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Serve turns the calling goroutine into a persistent released
// executor: it runs donated tasks from any search — parking between
// queries — until the pool is closed. This is the cross-cell and
// cross-query payoff: the worker a dominance-skipped cell never needed
// executes subtrees of the cells still branching, and the same worker
// serves next week's requery.
func (p *Pool) Serve() {
	p.releases.Add(1)
	p.mu.Lock()
	for {
		if p.runNextLocked(nil) {
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.hungry.Add(1)
		p.cond.Wait()
		p.hungry.Add(-1)
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Steals:          p.steals.Load(),
		CrossCellSteals: p.crossSteals.Load(),
		Releases:        p.releases.Load(),
	}
}

// Scope is one search's view of the pool: the termination ledger its
// driver waits on. Scopes are cheap; a search creates one per run.
type Scope struct {
	pool   *Pool
	active int // guarded by pool.mu; see the package comment
}

// NewScope registers a new search on the pool.
func (p *Pool) NewScope() *Scope { return &Scope{pool: p} }

// Hungry is Pool.Hungry, for call sites that only hold the scope.
func (sc *Scope) Hungry() bool { return sc.pool.Hungry() }

// Wanted is Pool.Wanted, for call sites that only hold the scope.
func (sc *Scope) Wanted() bool { return sc.pool.Wanted() }

// Submit donates a task into the scope's pool.
func (sc *Scope) Submit(t Task) { sc.pool.Submit(t) }

// Enter marks the calling goroutine as branching under this scope; the
// scope cannot terminate while it is entered. Every Enter must be
// paired with exactly one Exit.
func (sc *Scope) Enter() {
	sc.pool.mu.Lock()
	sc.active++
	sc.pool.mu.Unlock()
}

// Exit ends an Enter. When it empties the ledger, parked executors are
// woken so Drain and Serve observe the termination.
func (sc *Scope) Exit() {
	p := sc.pool
	p.mu.Lock()
	sc.active--
	if sc.active == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Drain is an executor's barrier: it executes pool tasks — its own
// search's or, while helping, other searches' — until this scope's
// ledger is empty, then returns. The caller must have Exited first.
// Both executor shapes end on it: the private per-component split's
// workers Drain after the root cursor runs dry (the pool is then
// private to the component, so every pop is the old busy-count steal
// loop), and a shared-pool search's driver Drains after its serial
// pass so it cannot return while another cell's executor is still
// inside one of its donated subtrees. Drain ignores halts
// deliberately: a halted search's queued tasks still occupy the queue
// and are retired by running them (each returns immediately against
// the halted searcher), so the ledger always converges and the pool
// never leaks tasks.
func (sc *Scope) Drain() {
	p := sc.pool
	p.mu.Lock()
	for {
		if sc.active == 0 {
			p.mu.Unlock()
			return
		}
		if p.runNextLocked(sc) {
			continue
		}
		p.hungry.Add(1)
		p.cond.Wait()
		p.hungry.Add(-1)
	}
}
