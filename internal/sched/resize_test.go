// Tests for the elastic fleet (resize.go) and graceful drain (drain.go):
// the contract under test is the issue's — a Resize never loses, drops, or
// double-runs a submission, retired workers are invisible to wake and
// steal, and a Drain completes every accepted handle without ErrStopped on
// the happy path.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestResizeInvalidArgs(t *testing.T) {
	p := New(Config{Workers: 2, MaxWorkers: 4})
	if err := p.Resize(0); err == nil {
		t.Fatal("Resize(0) succeeded; want an error")
	}
	if err := p.Resize(5); err == nil {
		t.Fatal("Resize(5) on MaxWorkers=4 succeeded; want an error")
	}
	if err := p.Resize(4); err != nil {
		t.Fatalf("Resize(4) on MaxWorkers=4: %v", err)
	}
}

func TestNewRejectsMaxWorkersBelowWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(Workers:4, MaxWorkers:2) did not panic")
		}
	}()
	New(Config{Workers: 4, MaxWorkers: 2})
}

// A resize between sessions takes effect at the next session: the fleet
// target is pool state, not session state.
func TestResizeIdlePool(t *testing.T) {
	p := New(Config{Workers: 2, MaxWorkers: 8})
	if err := p.Resize(8); err != nil {
		t.Fatalf("idle Resize: %v", err)
	}
	var ran atomic.Int64
	p.Run(func(w *Worker) {
		for i := 0; i < 64; i++ {
			w.Spawn(func(*Worker) { ran.Add(1) })
		}
	})
	if got := ran.Load(); got != 64 {
		t.Fatalf("ran %d of 64 tasks after an idle grow", got)
	}
	if got := p.Stats().ActiveWorkers; got != 8 {
		t.Fatalf("ActiveWorkers = %d after Run on a fleet resized to 8", got)
	}
	if err := p.Resize(1); err != nil {
		t.Fatalf("idle shrink: %v", err)
	}
	ran.Store(0)
	p.Run(func(w *Worker) {
		for i := 0; i < 16; i++ {
			w.Spawn(func(*Worker) { ran.Add(1) })
		}
	})
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d of 16 tasks on the shrunken fleet", got)
	}
	if got := p.Stats().ActiveWorkers; got != 1 {
		t.Fatalf("ActiveWorkers = %d after shrinking to 1", got)
	}
}

// Growing mid-Serve wakes the slots' sleeping goroutines: the widened fleet
// must both execute work and show up in the stats.
func TestResizeGrowMidServe(t *testing.T) {
	p := New(Config{Workers: 2, MaxWorkers: 8, ParkThreshold: 2})
	stop := startServing(t, p)
	if err := p.Resize(8); err != nil {
		t.Fatalf("Resize(8): %v", err)
	}
	waitFor(t, 10*time.Second, "grown fleet to report active", func() bool {
		return p.Stats().ActiveWorkers == 8
	})
	var ran atomic.Int64
	const subs = 40
	for i := 0; i < subs; i++ {
		h, err := p.Submit(func(w *Worker) {
			for j := 0; j < 8; j++ {
				w.Spawn(func(*Worker) { chaosSpin(50); ran.Add(1) })
			}
			ran.Add(1)
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if err := h.Wait(); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	if got := ran.Load(); got != subs*9 {
		t.Fatalf("ran %d of %d tasks on the grown fleet", got, subs*9)
	}
	if got := p.Stats().Resizes; got != 1 {
		t.Fatalf("Stats.Resizes = %d, want 1", got)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// Shrinking mid-Serve retires the suffix at safe points — every
// in-flight and subsequent submission still completes, nothing is
// dropped, and the retired workers leave the active count.
func TestResizeShrinkMidServe(t *testing.T) {
	p := New(Config{Workers: 8, ParkThreshold: 2})
	stop := startServing(t, p)
	var ran atomic.Int64
	const subs = 40
	handles := make([]*Handle, 0, subs)
	for i := 0; i < subs; i++ {
		h, err := p.Submit(func(w *Worker) {
			for j := 0; j < 8; j++ {
				w.Spawn(func(*Worker) { chaosSpin(200); ran.Add(1) })
			}
			ran.Add(1)
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles = append(handles, h)
		if i == subs/2 {
			if err := p.Resize(1); err != nil {
				t.Fatalf("Resize(1): %v", err)
			}
		}
	}
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("submission %d: Wait = %v across the shrink", i, err)
		}
	}
	if got := ran.Load(); got != subs*9 {
		t.Fatalf("ran %d of %d tasks across the shrink", got, subs*9)
	}
	waitFor(t, 10*time.Second, "suffix workers to retire", func() bool {
		s := p.Stats()
		return s.ActiveWorkers == 1 && s.WorkersRetired == 7
	})
	if got := p.Stats().TasksDropped; got != 0 {
		t.Fatalf("%d tasks dropped during a clean shrink", got)
	}
	// The shrunken fleet still serves.
	h, err := p.Submit(func(*Worker) { ran.Add(1) })
	if err != nil {
		t.Fatalf("post-shrink Submit: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("post-shrink Wait: %v", err)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// A shrink immediately regrown reactivates workers mid-retirement (the
// retiring→running CAS path): run it many times so both the reactivation
// and the woken-sleeper path get exercised, and assert no work is ever
// lost and the fleet lands on the final target.
func TestResizeShrinkGrowRace(t *testing.T) {
	p := New(Config{Workers: 4, MaxWorkers: 8, ParkThreshold: 2})
	stop := startServing(t, p)
	var ran atomic.Int64
	var want int64
	for round := 0; round < 50; round++ {
		h, err := p.Submit(func(w *Worker) {
			for j := 0; j < 4; j++ {
				w.Spawn(func(*Worker) { ran.Add(1) })
			}
			ran.Add(1)
		})
		if err != nil {
			t.Fatalf("round %d: Submit: %v", round, err)
		}
		want += 5
		if err := p.Resize(1); err != nil {
			t.Fatalf("round %d: shrink: %v", round, err)
		}
		if err := p.Resize(8); err != nil {
			t.Fatalf("round %d: grow: %v", round, err)
		}
		if err := h.Wait(); err != nil {
			t.Fatalf("round %d: Wait: %v", round, err)
		}
	}
	if got := ran.Load(); got != want {
		t.Fatalf("ran %d of %d tasks across the shrink/grow churn", got, want)
	}
	waitFor(t, 10*time.Second, "fleet to settle on the final target", func() bool {
		return p.Stats().ActiveWorkers == 8
	})
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// A worker Resize has marked cannot fall asleep: park's entry CAS is from
// running, so against the mark it fails and the worker goes back to its
// loop top — without counting itself idle, parking, or touching the session
// (there is none here: a park that got past its CAS would dereference it).
// And a worker marked in its sleep is woken by the Resize that marked it.
func TestRetiringWorkerCannotPark(t *testing.T) {
	p := New(Config{Workers: 2})
	if err := p.Resize(1); err != nil {
		t.Fatal(err)
	}
	w := p.workers[1]
	if got := w.status.Load(); got != workerRetiring {
		t.Fatalf("status %d after the shrink, want retiring", got)
	}
	if w.park() {
		t.Fatal("park reported a wake")
	}
	if s := p.Stats(); w.status.Load() != workerRetiring || p.idle.Load() != 0 || s.Parks != 0 {
		t.Fatalf("a marked worker's park left status %d, idle %d, %d parks", w.status.Load(), p.idle.Load(), s.Parks)
	}

	p = New(Config{Workers: 3, ParkThreshold: 2})
	stop := startServing(t, p)
	waitFor(t, 10*time.Second, "the fleet to park", func() bool { return p.Stats().Parks >= 3 && isIdle(p.workers[2]) })
	if err := p.Resize(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the worker marked in its sleep to retire", func() bool { return p.Stats().WorkersRetired == 1 })
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// A worker marked retiring in the middle of a task keeps its deque, and
// keeps pushing to it, until the task ends; the paper's premise is that a
// descheduled process's deque stays stealable, so the victim range may not
// narrow past the slot before it has retired. Worker 2 of three is marked
// while it runs a task that then spawns four children and blocks: the two
// workers left must run the four, and must be able to park afterwards (with
// the range narrowed at the mark they saw the work, could not aim at it, and
// yielded for as long as the task ran).
func TestShrinkKeepsBusyWorkersDequeStealable(t *testing.T) {
	p := New(Config{Workers: 3, ParkThreshold: 2})
	stop := startServing(t, p)
	shrunk, release := make(chan struct{}), make(chan struct{})
	var children atomic.Int64
	var long *Handle
	for try := 0; long == nil; try++ {
		if try == 1000 {
			t.Fatal("no submission of 1000 landed on worker 2")
		}
		landed := make(chan bool, 1)
		h, err := p.Submit(func(w *Worker) {
			landed <- w.ID() == 2
			if w.ID() != 2 {
				return
			}
			<-shrunk
			for i := 0; i < 4; i++ {
				w.Spawn(func(*Worker) { children.Add(1) })
			}
			<-release
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if <-landed {
			long = h
		} else if err := h.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if err := p.Resize(2); err != nil {
		t.Fatalf("Resize(2): %v", err)
	}
	close(shrunk)
	waitFor(t, 10*time.Second, "the marked worker's four children to run while its task is unreleased", func() bool {
		return children.Load() == 4
	})
	waitFor(t, 10*time.Second, "the two workers left to stop yielding", func() bool {
		y := p.Stats().Yields
		time.Sleep(20 * time.Millisecond)
		return p.Stats().Yields == y
	})
	if s := p.Stats(); s.WorkersRetired != 0 || s.ActiveWorkers != 2 {
		t.Fatalf("%d retired, %d active with the marked worker still in its task; want 0 and 2", s.WorkersRetired, s.ActiveWorkers)
	}
	close(release)
	if err := long.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	waitFor(t, 10*time.Second, "worker 2 to retire and leave the victim range", func() bool {
		return p.Stats().WorkersRetired == 1 && p.fleet.Load() == 2
	})
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// A session is one goroutine per worker slot, retired slots included, from
// its start to its end: Resize starts none and ends none.
func TestSessionGoroutines(t *testing.T) {
	// Let what earlier tests left running finish leaving.
	base := runtime.NumGoroutine()
	for settled := false; !settled; {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		settled, base = n == base, n
	}
	p := New(Config{Workers: 2, MaxWorkers: 4, ParkThreshold: 2})
	backToBase := func(what string) {
		t.Helper()
		waitFor(t, 10*time.Second, what+"'s goroutines to have left", func() bool { return runtime.NumGoroutine() == base })
	}

	stop := startServing(t, p)
	serving := base + 1 // the goroutine Serve is called on
	if got := runtime.NumGoroutine(); got != serving+4 {
		t.Fatalf("%d goroutines in a Serve of MaxWorkers 4, want %d", got-serving, 4)
	}
	var handles []*Handle
	for cycle := 0; cycle < 100; cycle++ {
		h, err := p.Submit(func(w *Worker) {
			for i := 0; i < 4; i++ {
				w.Spawn(func(*Worker) { chaosSpin(50) })
			}
		})
		if err != nil {
			t.Fatalf("cycle %d: Submit: %v", cycle, err)
		}
		handles = append(handles, h)
		for _, n := range []int{4, 1} {
			if err := p.Resize(n); err != nil {
				t.Fatalf("cycle %d: Resize(%d): %v", cycle, n, err)
			}
			if got := runtime.NumGoroutine(); got != serving+4 {
				t.Fatalf("cycle %d: %d goroutines after Resize(%d), want %d", cycle, got-serving, n, 4)
			}
		}
	}
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
	backToBase("the Serve")

	// The root may run on worker 0 while startSession is still forking the
	// other three: give them a moment.
	inRun := 0
	p.Run(func(*Worker) {
		for end := time.Now().Add(2 * time.Second); inRun != base+4 && time.Now().Before(end); runtime.Gosched() {
			inRun = runtime.NumGoroutine()
		}
	})
	if inRun != base+4 {
		t.Fatalf("%d goroutines in a Run of MaxWorkers 4, want %d", inRun-base, 4)
	}
	backToBase("the Run")
}

// The happy-path drain contract: every handle accepted before Drain
// completes with nil (never ErrStopped), Submit during the drain reports
// ErrDraining, Serve returns nil, and the pool serves again afterwards.
func TestDrainHappyPath(t *testing.T) {
	p := New(Config{Workers: 4, ParkThreshold: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(ctx) }()
	waitFor(t, 10*time.Second, "pool to start serving", inPhase(p, phaseServing))

	gate := make(chan struct{})
	var ran atomic.Int64
	const subs = 20
	handles := make([]*Handle, 0, subs)
	for i := 0; i < subs; i++ {
		h, err := p.Submit(func(w *Worker) {
			<-gate
			for j := 0; j < 4; j++ {
				w.Spawn(func(*Worker) { ran.Add(1) })
			}
			ran.Add(1)
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- p.Drain(context.Background()) }()
	// The drain must close admission before the accepted set finishes.
	waitFor(t, 10*time.Second, "admission to close", func() bool {
		_, err := p.Submit(func(*Worker) {})
		return errors.Is(err, ErrDraining)
	})
	close(gate) // let the accepted submissions run

	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v on the happy path", err)
	}
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("accepted submission %d: Wait = %v after a graceful drain (want nil)", i, err)
		}
	}
	if got := ran.Load(); got != subs*5 {
		t.Fatalf("ran %d of %d tasks through the drain", got, subs*5)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after a graceful drain, want nil", err)
	}

	// The pool is reusable: a second Serve accepts and completes work.
	stop := startServing(t, p)
	h, err := p.Submit(func(*Worker) {})
	if err != nil {
		t.Fatalf("Submit after drain+restart: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait after drain+restart: %v", err)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("restarted Serve returned %v", err)
	}
}

// The bounded-drain fallback: when the drain deadline expires with
// submissions still in flight, Drain reports the ctx error and the
// stragglers complete with ErrStopped instead of wedging.
func TestDrainDeadlineFallback(t *testing.T) {
	p := New(Config{Workers: 2, ParkThreshold: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(ctx) }()
	waitFor(t, 10*time.Second, "pool to start serving", inPhase(p, phaseServing))

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	h, err := p.Submit(func(*Worker) {
		started <- struct{}{}
		<-gate
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started // the task is executing: the drain cannot complete until gate opens

	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if err := p.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v with a wedged submission, want DeadlineExceeded", err)
	}
	// The straggler was aborted by the teardown sweep; its task is still
	// blocked, so release it so the worker (and Serve) can exit.
	if err := h.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("straggler Wait = %v after a deadline drain, want ErrStopped", err)
	}
	close(gate)
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after a deadline drain, want nil", err)
	}
}

func TestDrainNotServing(t *testing.T) {
	p := New(Config{Workers: 2})
	if err := p.Drain(context.Background()); !errors.Is(err, ErrNotServing) {
		t.Fatalf("Drain on an idle pool = %v, want ErrNotServing", err)
	}
}

// One Drain wins per session; a concurrent second Drain reports
// ErrDraining rather than interfering.
func TestDrainConcurrentLoses(t *testing.T) {
	p := New(Config{Workers: 2, ParkThreshold: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(ctx) }()
	waitFor(t, 10*time.Second, "pool to start serving", inPhase(p, phaseServing))

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	if _, err := p.Submit(func(*Worker) { started <- struct{}{}; <-gate }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	first := make(chan error, 1)
	go func() { first <- p.Drain(context.Background()) }()
	waitFor(t, 10*time.Second, "first drain to close admission", inPhase(p, phaseDraining))
	if err := p.Drain(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("second Drain = %v, want ErrDraining", err)
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("first Drain = %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
}

// A Drain may not report success over a submission the session aborted:
// when Serve's own context stops the session under a waiting Drain, the
// accepted handle resolves ErrStopped and the Drain says the pool is no
// longer serving — not nil, which promises that everything accepted ran.
func TestDrainLosesToServeStop(t *testing.T) {
	p := New(Config{Workers: 2, ParkThreshold: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(ctx) }()
	waitFor(t, 10*time.Second, "pool to start serving", inPhase(p, phaseServing))

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	h, err := p.Submit(func(*Worker) { started <- struct{}{}; <-gate })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	waitFor(t, 10*time.Second, "the drain to close admission", inPhase(p, phaseDraining))
	cancel()
	if err := h.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Wait = %v for a submission in flight at the stop, want ErrStopped", err)
	}
	if err := <-drained; !errors.Is(err, ErrNotServing) {
		t.Fatalf("Drain = %v with its session stopped and a submission aborted, want ErrNotServing", err)
	}
	close(gate)
	if err := <-serveErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", err)
	}
}

// The same stop arriving as the drained submission completes: whichever
// way the handle ended is what the Drain reports. A handle that completed
// means the drain did, whatever Serve's context did since; one the stop
// aborted means it did not, and then it is Serve's context that brought the
// session down.
func TestDrainRacesServeStop(t *testing.T) {
	p := New(Config{Workers: 2, ParkThreshold: 2})
	completed, stopped := 0, 0
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		serveErr := make(chan error, 1)
		go func() { serveErr <- p.Serve(ctx) }()
		waitFor(t, 10*time.Second, "pool to start serving", inPhase(p, phaseServing))
		gate := make(chan struct{})
		started := make(chan struct{})
		h, err := p.Submit(func(*Worker) { close(started); <-gate })
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-started
		drained := make(chan error, 1)
		go func() { drained <- p.Drain(context.Background()) }()
		waitFor(t, 10*time.Second, "the drain to close admission", inPhase(p, phaseDraining))
		if i%2 == 0 {
			go cancel()
			close(gate)
		} else {
			go close(gate)
			cancel()
		}
		herr, derr, serr := h.Wait(), <-drained, <-serveErr
		switch {
		case herr == nil:
			completed++
			if derr != nil || serr != nil && !errors.Is(serr, context.Canceled) {
				t.Fatalf("round %d: the handle completed, Drain = %v, Serve = %v", i, derr, serr)
			}
		case errors.Is(herr, ErrStopped):
			stopped++
			if !errors.Is(derr, ErrNotServing) || !errors.Is(serr, context.Canceled) {
				t.Fatalf("round %d: the stop aborted the handle, Drain = %v, Serve = %v", i, derr, serr)
			}
		default:
			t.Fatalf("round %d: Wait = %v", i, herr)
		}
	}
	t.Logf("%d rounds completed under the drain, %d were stopped first", completed, stopped)
}

// The satellite-1 regression: a Serve→stop→Serve cycle must behave like a
// fresh pool. The second session's wake-scan cursor starts from zero (the
// white-box half) and submissions complete exactly as in the first (the
// behavioral half).
func TestServeStopServeRestart(t *testing.T) {
	p := New(Config{Workers: 4, ParkThreshold: 2})
	for session := 0; session < 3; session++ {
		stop := startServing(t, p)
		if got := p.wakeRR.Load(); got != 0 {
			t.Fatalf("session %d: wakeRR = %d at session start, want 0", session, got)
		}
		var ran atomic.Int64
		for i := 0; i < 20; i++ {
			h, err := p.Submit(func(w *Worker) {
				for j := 0; j < 4; j++ {
					w.Spawn(func(*Worker) { ran.Add(1) })
				}
				ran.Add(1)
			})
			if err != nil {
				t.Fatalf("session %d: Submit %d: %v", session, i, err)
			}
			if err := h.Wait(); err != nil {
				t.Fatalf("session %d: Wait %d: %v", session, i, err)
			}
		}
		if got := ran.Load(); got != 100 {
			t.Fatalf("session %d: ran %d of 100 tasks", session, got)
		}
		if err := stop(); !errors.Is(err, context.Canceled) {
			t.Fatalf("session %d: Serve returned %v", session, err)
		}
	}
}
