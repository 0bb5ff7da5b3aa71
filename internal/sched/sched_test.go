package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTask is a minimal Task: a closure plus its scope.
type fakeTask struct {
	scope *Scope
	run   func()
}

func (t *fakeTask) Run() {
	if t.run != nil {
		t.run()
	}
}
func (t *fakeTask) TaskScope() *Scope { return t.scope }

// drainWithin runs sc.Drain and fails the test if it has not returned
// after the given time: a task that is run but never retired from its
// scope's ledger would otherwise hang Drain forever.
func drainWithin(t *testing.T, sc *Scope, d time.Duration) {
	t.Helper()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc.Drain()
	}()
	select {
	case <-drained:
	case <-time.After(d):
		t.Fatal("Drain never returned: a run task was not retired from its scope's ledger")
	}
}

// A driver that submitted tasks and Exited must retire all of them in
// Drain, leaving the queue empty.
func TestDrainRunsOwnTasks(t *testing.T) {
	p := NewPool()
	sc := p.NewScope()
	sc.Enter()
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		p.Submit(&fakeTask{scope: sc, run: func() { ran.Add(1) }})
	}
	sc.Exit()
	drainWithin(t, sc, 10*time.Second)
	if ran.Load() != 5 {
		t.Fatalf("Drain ran %d of 5 tasks", ran.Load())
	}
	if p.Pending() != 0 {
		t.Fatalf("%d tasks left queued after Drain", p.Pending())
	}
	st := p.Stats()
	if st.Steals != 5 || st.CrossCellSteals != 0 {
		t.Fatalf("own-task drain counted steals=%d cross=%d; want 5/0", st.Steals, st.CrossCellSteals)
	}
}

// Drain must not return while another executor is still inside one of
// the scope's tasks — the cross-executor termination ledger.
func TestDrainWaitsForRunningTask(t *testing.T) {
	p := NewPool()
	sc := p.NewScope()

	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		p.Serve()
	}()
	for !p.Hungry() {
		runtime.Gosched()
	}

	release := make(chan struct{})
	started := make(chan struct{})
	sc.Enter()
	p.Submit(&fakeTask{scope: sc, run: func() {
		close(started)
		<-release
	}})
	sc.Exit()
	<-started // the Serve executor is now inside the task

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc.Drain()
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while the scope's task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-drained
	p.Close()
	<-serveDone

	st := p.Stats()
	if st.CrossCellSteals != 1 || st.Releases != 1 {
		t.Fatalf("stats %+v; want one cross steal by one released executor", st)
	}
}

// Wanted throttles donation to actual demand: false with nobody
// hungry, true with a parked executor, false again once the queue
// covers the demand.
func TestWantedTracksDemand(t *testing.T) {
	p := NewPool()
	if p.Wanted() {
		t.Fatal("Wanted with no hungry executor")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Serve()
	}()
	for !p.Hungry() {
		runtime.Gosched()
	}
	if !p.Wanted() {
		t.Fatal("not Wanted despite a parked executor and an empty queue")
	}
	// Queue a task while holding the executor parked is racy (it will
	// pop it); instead close and check Wanted goes false.
	p.Close()
	<-done
	if p.Wanted() {
		t.Fatal("Wanted after Close")
	}
}

// Victim selection: an executor pops the most recent donation first
// (LIFO), the subtree whose frontier buffers are still cache-hot.
func TestVictimSelectionOrder(t *testing.T) {
	p := NewPool()
	sc := p.NewScope()
	sc.Enter()

	var order []int
	for id := 1; id <= 3; id++ {
		p.Submit(&fakeTask{scope: sc, run: func() { order = append(order, id) }})
	}
	sc.Exit()
	drainWithin(t, sc, 10*time.Second)

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

// Serve executors drain tasks from many scopes and exit on Close; every
// ledger ends at zero even under churn. Run with -race via make
// test-race: this is the cross-scope counterpart of the engine-level
// donation race tests.
func TestManyScopesManyExecutorsRace(t *testing.T) {
	p := NewPool()
	const executors = 4
	var serveWG sync.WaitGroup
	for i := 0; i < executors; i++ {
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			p.Serve()
		}()
	}

	var ran atomic.Int64
	var total atomic.Int64
	var driverWG sync.WaitGroup
	for d := 0; d < 6; d++ {
		driverWG.Add(1)
		go func() {
			defer driverWG.Done()
			sc := p.NewScope()
			sc.Enter()
			for i := 0; i < 50; i++ {
				if p.Hungry() && p.Wanted() {
					total.Add(1)
					p.Submit(&fakeTask{scope: sc, run: func() { ran.Add(1) }})
				} else {
					// Branch locally: the work happens either way.
					total.Add(1)
					ran.Add(1)
				}
			}
			sc.Exit()
			sc.Drain()
		}()
	}
	driverWG.Wait()
	p.Close()
	serveWG.Wait()
	if ran.Load() != total.Load() {
		t.Fatalf("ran %d of %d work items", ran.Load(), total.Load())
	}
	if p.Pending() != 0 {
		t.Fatalf("%d tasks leaked in the queue", p.Pending())
	}
}
