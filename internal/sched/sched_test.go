package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTask is a minimal Task: a closure.
type fakeTask struct {
	run func()
}

func (t *fakeTask) Run() {
	if t.run != nil {
		t.run()
	}
}

// drainWithin runs p.Drain and fails the test if it has not returned
// after the given time: a task that is run but never retired from the
// ledger would otherwise hang Drain forever.
func drainWithin(t *testing.T, p *Pool, d time.Duration) {
	t.Helper()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		p.Drain()
	}()
	select {
	case <-drained:
	case <-time.After(d):
		t.Fatal("Drain never returned: a run task was not retired from the ledger")
	}
}

// parkThief starts a worker that parks hungry in Drain — the split's
// own idle state — and waits until it is parked. The caller must hold
// the ledger open (Enter) first, or Drain returns at once. The
// returned channel closes when the thief's Drain returns.
func parkThief(p *Pool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Drain()
	}()
	for !p.Hungry() {
		runtime.Gosched()
	}
	return done
}

// A driver that submitted tasks and Exited must retire all of them in
// Drain, leaving the queue empty.
func TestDrainRunsOwnTasks(t *testing.T) {
	p := NewPool()
	p.Enter()
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		p.Submit(&fakeTask{run: func() { ran.Add(1) }})
	}
	p.Exit()
	drainWithin(t, p, 10*time.Second)
	if ran.Load() != 5 {
		t.Fatalf("Drain ran %d of 5 tasks", ran.Load())
	}
	if p.Pending() != 0 {
		t.Fatalf("%d tasks left queued after Drain", p.Pending())
	}
}

// Drain must not return while another worker is still inside one of
// the split's tasks — the cross-worker termination ledger. The thief
// parks in Drain while the driver is still branching, exactly as a
// split worker whose root cursor ran dry does.
func TestDrainWaitsForRunningTask(t *testing.T) {
	p := NewPool()
	p.Enter()
	thiefDone := parkThief(p)

	release := make(chan struct{})
	started := make(chan struct{})
	p.Submit(&fakeTask{run: func() {
		close(started)
		<-release
	}})
	p.Exit()
	<-started // the thief is now inside the task

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		p.Drain()
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while the split's task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-drained
	<-thiefDone
}

// Wanted throttles donation to actual demand: false with nobody
// hungry, true with a parked worker, false again once the ledger
// empties and the worker leaves Drain.
func TestWantedTracksDemand(t *testing.T) {
	p := NewPool()
	if p.Wanted() {
		t.Fatal("Wanted with no hungry worker")
	}
	p.Enter()
	done := parkThief(p)
	if !p.Wanted() {
		t.Fatal("not Wanted despite a parked worker and an empty queue")
	}
	p.Exit()
	<-done
	if p.Wanted() {
		t.Fatal("Wanted after the split finished")
	}
}

// Victim selection: a worker pops the most recent donation first
// (LIFO), the subtree whose frontier buffers are still cache-hot.
func TestVictimSelectionOrder(t *testing.T) {
	p := NewPool()
	p.Enter()

	var order []int
	for id := 1; id <= 3; id++ {
		p.Submit(&fakeTask{run: func() { order = append(order, id) }})
	}
	p.Exit()
	drainWithin(t, p, 10*time.Second)

	want := []int{3, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("pop order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// Several splits run at once, as concurrent searches do, each with
// several workers that branch, donate on demand and then Drain; every
// ledger ends at zero and no work item is lost or run twice. Run with
// -race via make test-race: this is the ledger-level counterpart of
// the engine's donation race tests.
func TestManyScopesManyExecutorsRace(t *testing.T) {
	const splits, workers, items = 3, 4, 50
	var ran, total atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < splits; s++ {
		p := NewPool()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			p.Enter()
			go func() {
				defer wg.Done()
				for i := 0; i < items; i++ {
					total.Add(1)
					if p.Hungry() && p.Wanted() {
						p.Submit(&fakeTask{run: func() { ran.Add(1) }})
					} else {
						ran.Add(1) // branch locally: the work happens either way
					}
				}
				p.Exit()
				p.Drain()
				if n := p.Pending(); n != 0 {
					t.Errorf("worker left Drain with %d tasks queued", n)
				}
			}()
		}
	}
	wg.Wait()
	if ran.Load() != total.Load() {
		t.Fatalf("ran %d of %d work items", ran.Load(), total.Load())
	}
}
