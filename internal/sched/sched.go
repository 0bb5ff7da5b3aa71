// Package sched is the work-donation ledger of one parallel split. A
// Pool belongs to a single root split of a single component
// (internal/core's splitRoot): its workers pull root branches from a
// shared cursor, and once the cursor runs dry a worker parks in Drain,
// where busy workers feed it frontier subtrees they would otherwise
// have branched into themselves. The Pool lives exactly as long as the
// split: no goroutine outlives the search that created it.
//
// The package deliberately knows nothing about cliques: work items are
// opaque Tasks that carry their own execution state (internal/core's
// donated subtree nodes implement Task). What sched owns is the
// donation queue, the demand signal busy workers poll before shipping
// a subtree, and the termination ledger that lets the split prove all
// of its donated work has finished.
//
// The queue is one slice popped LIFO: a worker takes the most recently
// donated subtree, the one whose frontier buffers are still hot in the
// cache that produced them.
//
// # The ledger
//
// A Pool's activity count is
//
//	active = branching workers (Enter/Exit)
//	       + live tasks (Submit until retired after running, queued or
//	         running)
//
// and the split is complete exactly when active reaches zero: nobody
// is expanding nodes and no donated subtree is queued or in flight. A
// popped task stays counted until the worker that ran it retires it,
// so a worker in Drain never observes active == 0 while another worker
// is still inside a subtree.
//
// Waiting workers (in Drain) raise the hungry counter; branch-hot
// donation checks are a single atomic load (Hungry).
package sched

import (
	"sync"
	"sync/atomic"
)

// Task is one donated unit of work: a self-contained subtree frontier
// node that any worker of the split can run. Implementations are
// recycled by their owners after Run returns, so the Pool never touches
// a task again once it has run.
type Task interface {
	// Run executes the work item on the calling goroutine and recycles
	// the task's buffers.
	Run()
}

// Pool is the scheduler of one split: the LIFO donation queue, the
// hungry counter donors poll, the termination ledger and the condition
// variable idle workers park on. Its cost when nobody is hungry is a
// single atomic load per branch node.
type Pool struct {
	hungry atomic.Int32 // workers parked in Drain waiting for work
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Task // popped LIFO from the tail
	active int    // guarded by mu; see the package comment
}

// NewPool returns an empty pool with nothing active.
func NewPool() *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Hungry reports whether any worker is parked waiting for work — the
// donation check on the branching hot path. One atomic load.
func (p *Pool) Hungry() bool { return p.hungry.Load() > 0 }

// Wanted reports whether the queue is shorter than the number of
// hungry workers, i.e. whether one more donation would actually feed
// someone. Donors call it right before paying the O(row) task-copy
// cost. Two donors racing past it can over-donate by at most
// workers-1 tasks; surplus tasks are drained by Drain, so nothing is
// lost.
func (p *Pool) Wanted() bool {
	p.mu.Lock()
	ok := int32(len(p.queue)) < p.hungry.Load()
	p.mu.Unlock()
	return ok
}

// Submit queues a donated task and wakes a worker. The task counts
// toward the ledger until the worker that ran it retires it.
func (p *Pool) Submit(t Task) {
	p.mu.Lock()
	p.active++
	p.queue = append(p.queue, t)
	p.cond.Signal()
	p.mu.Unlock()
}

// Pending reports how many donated tasks are queued but not yet picked
// up (tasks already running on a worker are not counted). Test hook;
// the hot paths never call it.
func (p *Pool) Pending() int {
	p.mu.Lock()
	n := len(p.queue)
	p.mu.Unlock()
	return n
}

// Enter marks the calling goroutine as branching; the split cannot
// terminate while it is entered. Every Enter must be paired with
// exactly one Exit.
func (p *Pool) Enter() {
	p.mu.Lock()
	p.active++
	p.mu.Unlock()
}

// Exit ends an Enter. When it empties the ledger, parked workers are
// woken so Drain observes the termination.
func (p *Pool) Exit() {
	p.mu.Lock()
	p.retireLocked()
	p.mu.Unlock()
}

// retireLocked drops one unit from the ledger and, when that empties
// it, wakes every parked worker: each must see the termination and
// return from Drain. Called with p.mu held.
func (p *Pool) retireLocked() {
	p.active--
	if p.active == 0 {
		p.cond.Broadcast()
	}
}

// Drain is a worker's barrier: it runs queued tasks until the ledger
// is empty, then returns. The caller must have Exited first. Drain
// ignores halts deliberately: a halted search's queued tasks still
// occupy the queue and are retired by running them (each returns
// immediately against the halted searcher), so the ledger always
// converges and no task leaks.
func (p *Pool) Drain() {
	p.mu.Lock()
	for p.active > 0 {
		if n := len(p.queue) - 1; n >= 0 {
			t := p.queue[n]
			p.queue[n] = nil
			p.queue = p.queue[:n]
			p.mu.Unlock()
			t.Run()
			p.mu.Lock()
			p.retireLocked()
			continue
		}
		p.hungry.Add(1)
		p.cond.Wait()
		p.hungry.Add(-1)
	}
	p.mu.Unlock()
}
