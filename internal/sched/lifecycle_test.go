package sched

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/deque"
)

// A panic-aborted run drops its un-run tasks; the next Run must drain
// them, or they execute in (and decrement the pending counter of) the
// wrong run. Workers=1 makes it deterministic: with no thief, every
// spawned task is still in worker 0's deque when the root panics.
func TestPoolReuseAfterPanicDropsStaleTasks(t *testing.T) {
	p := New(Config{Workers: 1})
	var stale atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		p.Run(func(w *Worker) {
			for i := 0; i < 100; i++ {
				w.Spawn(func(*Worker) { stale.Add(1) })
			}
			panic("abort mid-run")
		})
	}()
	ranInAbortedRun := stale.Load()

	var count atomic.Int64
	for round := 0; round < 3; round++ {
		p.Run(func(w *Worker) {
			ParallelFor(w, 0, 50, 4, func(int) { count.Add(1) })
		})
	}
	if count.Load() != 150 {
		t.Fatalf("post-panic runs executed %d of 150 tasks", count.Load())
	}
	if got := stale.Load(); got != ranInAbortedRun {
		t.Fatalf("%d stale tasks from the aborted run executed in later runs", got-ranInAbortedRun)
	}
	if s := p.Stats(); s.TasksDropped != 100 {
		t.Fatalf("TasksDropped = %d, want 100", s.TasksDropped)
	}
}

// rejectFirstPush wraps a deque and refuses exactly one PushBottom,
// simulating a full deque at root-submission time.
type rejectFirstPush struct {
	deque.Dequer[Task]
	rejected atomic.Bool
}

func (r *rejectFirstPush) PushBottom(t *Task) bool {
	if r.rejected.CompareAndSwap(false, true) {
		return false
	}
	return r.Dequer.PushBottom(t)
}

// isIdle reports whether w is a wake target as signalWork sees it: parked,
// or on the way in or out of a park.
func isIdle(w *Worker) bool { return w.status.Load() == workerIdle }

// Run used to ignore PushBottom's boolean for the root task; a refusal
// left pending stuck at 1 and wg.Wait deadlocked. The root must run anyway:
// it is handed off through the injector.
func TestRootPushRefusalFallsBackToHandoff(t *testing.T) {
	p := New(Config{Workers: 2})
	p.workers[0].dq = &rejectFirstPush{Dequer: p.workers[0].dq}
	var count atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(w *Worker) {
			ParallelFor(w, 0, 20, 2, func(int) { count.Add(1) })
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked after a refused root push")
	}
	if count.Load() != 20 {
		t.Fatalf("root ran %d of 20 iterations", count.Load())
	}
}

// Stats must be callable while a run is in flight (the counters are
// atomics); under -race this test fails if any counter is a plain int64.
func TestStatsConcurrentWithRun(t *testing.T) {
	p := New(Config{Workers: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := p.Stats()
				if s.Steals > s.StealAttempts {
					t.Error("steals exceed attempts in a mid-run snapshot")
					return
				}
			}
		}
	}()
	for i := 0; i < 3; i++ {
		p.Run(func(w *Worker) { _ = fibPar(w, 18, 5) })
	}
	close(stop)
	wg.Wait()
}

// awaitParks blocks the calling task until n parks are on the counter —
// with a root that spawns nothing, until n idle workers have parked — and
// reports whether that happened within 30 s.
func awaitParks(t *testing.T, p *Pool, n int64) bool {
	deadline := time.Now().Add(30 * time.Second)
	for p.Stats().Parks < n {
		if time.Now().After(deadline) {
			t.Errorf("%d of %d idle workers parked within 30s", p.Stats().Parks, n)
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// While one worker runs a long serial task, the rest must park rather
// than spin: a spinning worker makes millions of steal attempts per
// second, a parked one makes roughly ParkThreshold on its way there and
// none after. The root holds the run open until every idle worker has
// parked, however long the host takes to let them.
func TestParkedWorkersDoNotSpin(t *testing.T) {
	const workers = 4
	p := New(Config{Workers: workers})
	p.Run(func(w *Worker) { awaitParks(t, p, workers-1) })
	s := p.Stats()
	if s.StealAttempts > 100_000 {
		t.Fatalf("%d steal attempts during an idle run: workers are spinning, not parking", s.StealAttempts)
	}
	if s.Parks < workers-1 {
		t.Fatalf("%d parks during an idle run of %d workers, want at least %d", s.Parks, workers, workers-1)
	}
}

// A helping waiter must not spin on work it never takes: with its child
// held by the other worker and submissions queued in the injector — which
// only worker loops pop — Join and Group.Wait used to see "visible work",
// fail to get any, and retry, at a steal attempt per turn for as long as
// both lasted (1.9 M attempts in 300 ms). The child is pinned on the other
// worker by a channel and the injector filled before the root reaches its
// wait; once the waiter has settled, StealAttempts stands still.
func TestWaiterBlocksWhileInjectorHoldsWork(t *testing.T) {
	forks := map[string]func(w *Worker, child func()) (wait func()){
		"Join": func(w *Worker, child func()) func() {
			f := Fork(w, func(*Worker) (_ struct{}) { child(); return })
			return func() { f.Join(w) }
		},
		"Group.Wait": func(w *Worker, child func()) func() {
			g := NewGroup()
			g.Spawn(w, func(*Worker) { child() })
			return func() { g.Wait(w) }
		},
	}
	for name, fork := range forks {
		t.Run(name, func(t *testing.T) {
			p := New(Config{Workers: 2})
			stop := startServing(t, p)
			started, queued, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
			submit := func(fn func(*Worker)) *Handle {
				h, err := p.Submit(fn)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				return h
			}
			handles := []*Handle{submit(func(w *Worker) {
				wait := fork(w, func() {
					close(started)
					<-release
				})
				<-started // the root is not waiting yet, so the other worker stole the child
				<-queued
				wait()
			})}
			<-started
			for i := 0; i < 8; i++ { // both workers are inside tasks: these stay in the injector
				handles = append(handles, submit(func(*Worker) {}))
			}
			close(queued)
			settled := false
			for deadline := time.Now().Add(3 * time.Second); !settled && time.Now().Before(deadline); {
				attempts := p.Stats().StealAttempts
				time.Sleep(20 * time.Millisecond)
				settled = p.Stats().StealAttempts == attempts
			}
			if !settled {
				t.Errorf("the waiter is still making steal attempts (%d so far) with nothing but the injector to look at", p.Stats().StealAttempts)
			}
			close(release)
			for i, h := range handles {
				if err := h.Wait(); err != nil {
					t.Errorf("submission %d: %v", i, err)
				}
			}
			if err := stop(); err == nil {
				t.Error("Serve returned nil after cancellation")
			}
		})
	}
}

// Spawning after the other workers have parked must wake them and the
// spawned work must still all run. The root waits on the park counter.
func TestParkedWorkersWakeForNewWork(t *testing.T) {
	const workers = 4
	p := New(Config{Workers: workers})
	var count atomic.Int64
	p.Run(func(w *Worker) {
		if !awaitParks(t, p, workers-1) {
			return
		}
		for i := 0; i < 100; i++ {
			w.Spawn(func(*Worker) {
				time.Sleep(time.Millisecond)
				count.Add(1)
			})
		}
	})
	if count.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks spawned after workers parked", count.Load())
	}
	if s := p.Stats(); s.Wakes == 0 {
		t.Fatal("no parked worker was woken by Spawn")
	}
}

// A threshold no count of failed steals reaches is the paper's pure spinning
// loop: no park.
func TestParkThresholdMaxIntNeverParks(t *testing.T) {
	p := New(Config{Workers: 4, ParkThreshold: math.MaxInt})
	p.Run(func(w *Worker) { time.Sleep(5 * time.Millisecond) })
	if s := p.Stats(); s.Parks != 0 {
		t.Fatalf("parks=%d with ParkThreshold: math.MaxInt", s.Parks)
	}
}

// A joiner blocked on f.ch when another task panics must surface
// poolAbortedError, and parked workers must wake on the abort so Run
// returns. The channel handshake makes the schedule deterministic: the
// forked task is guaranteed stolen, the joiner guaranteed blocked.
func TestJoinAbortSurfacesWhileWorkersParked(t *testing.T) {
	p := New(Config{Workers: 4})
	var recovered any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recovered = recover() }()
		p.Run(func(w *Worker) {
			release := make(chan struct{})
			stolen := make(chan struct{})
			f := Fork(w, func(*Worker) int {
				close(stolen) // only a thief can reach here while root blocks below
				<-release
				panic("inner")
			})
			<-stolen
			close(release)
			_ = f.Join(w) // no visible work: blocks on f.ch until the abort
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after an abort with parked workers")
	}
	if recovered != "inner" {
		t.Fatalf("recovered %v, want the inner panic value", recovered)
	}
}

func TestStatsString(t *testing.T) {
	p := New(Config{Workers: 2})
	p.Run(func(w *Worker) { _ = fibPar(w, 15, 5) })
	out := p.Stats().String()
	for _, field := range []string{"tasks-run", "spawns", "steals", "parks", "wakes", "tasks-dropped", "tasks-cancelled", "stalls"} {
		if !strings.Contains(out, field) {
			t.Fatalf("Stats.String missing %q:\n%s", field, out)
		}
	}
}

// signalWork used to scan the fleet from index zero on every call, so a
// trickle of submissions — each arriving with the whole fleet parked —
// woke worker 0 every single time while the rest slept cold. The rotating
// cursor spreads wakes; this test submits one task per fully-parked
// round and asserts the wakes land on (nearly) the whole fleet. The
// tolerance of one worker absorbs a token sent by a signaller that read a
// worker idle just before that worker left its park — its re-check saw the
// submission — and sent after the exit had dropped what was pending: the
// worker's next park then takes it in place of the rotation's choice.
func TestSignalWorkWakeFairness(t *testing.T) {
	const workers = 4
	p := New(Config{Workers: workers, ParkThreshold: 2})
	stop := startServing(t, p)
	allParked := func() bool {
		for _, w := range p.workers {
			if !isIdle(w) {
				return false
			}
		}
		return true
	}
	for round := 0; round < 12*workers; round++ {
		waitFor(t, 10*time.Second, "the whole fleet to park", allParked)
		h, err := p.Submit(func(*Worker) {})
		if err != nil {
			t.Fatalf("round %d: Submit: %v", round, err)
		}
		if err := h.Wait(); err != nil {
			t.Fatalf("round %d: Wait: %v", round, err)
		}
	}
	woken := 0
	for i, w := range p.workers {
		if n := w.wakes.Load(); n > 0 {
			woken++
		} else {
			t.Logf("worker %d: zero wakes", i)
		}
	}
	if woken < workers-1 {
		t.Fatalf("wakes landed on %d of %d workers: signalWork is scanning from a fixed start, not rotating", woken, workers)
	}
	if err := stop(); err == nil {
		t.Fatal("Serve returned nil after cancellation")
	}
}

// A parked worker woken by a burst of spawns is the target of every
// signalWork that reads it idle before it runs again: the first spawn's
// token wakes it, and the second finds the channel empty and leaves one
// there. Unless park's exit drops that token, the worker's next park ends
// on it at once — a wake with no work, and a second park, for one burst.
func TestWokenWorkerBlocksAtNextPark(t *testing.T) {
	p := New(Config{Workers: 2})
	var ran atomic.Int64
	p.Run(func(w *Worker) {
		other := p.workers[1-w.id]
		spinUntil(t, "the other worker to park", func() bool { return isIdle(other) && other.parks.Load() > 0 })
		time.Sleep(5 * time.Millisecond) // past the re-check, into the select
		parks, wakes := other.parks.Load(), other.wakes.Load()
		for i := 0; i < 4; i++ {
			w.Spawn(func(*Worker) { ran.Add(1) })
		}
		spinUntil(t, "the woken worker to run the burst and park again", func() bool {
			return ran.Load() == 4 && isIdle(other) && other.parks.Load() > parks
		})
		time.Sleep(20 * time.Millisecond) // room for a stale token's wake and its hot rounds
		if got := other.wakes.Load() - wakes; got != 1 {
			t.Errorf("the burst woke the parked worker %d times, want 1", got)
		}
		if got := other.parks.Load() - parks; got != 1 {
			t.Errorf("the woken worker parked %d times after the burst, want 1", got)
		}
	})
}

func TestParkThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a negative park threshold")
		}
	}()
	New(Config{Workers: 2, ParkThreshold: -1})
}
