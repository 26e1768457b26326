// Tests for the crash/stall-tolerant lifecycle additions to Pool:
// RunContext cancellation, the concurrent-run guard, and the guarantee
// that cancellation (like a panic abort) unwinds blocked Joins instead of
// waiting on them.
package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/fault"
)

// A nil context means context.Background(), as it does for Serve and Drain:
// a nil-context RunContext runs its root and leaves the pool free for the
// next Run, and a nil-context Submit inside a Serve is admitted and runs.
func TestNilContextIsBackground(t *testing.T) {
	p := New(Config{Workers: 2})
	var ran atomic.Int64
	if err := p.RunContext(nil, func(*Worker) { ran.Add(1) }); err != nil {
		t.Fatalf("RunContext(nil) = %v", err)
	}
	p.Run(func(*Worker) { ran.Add(1) })
	stop := startServing(t, p)
	h, err := p.SubmitContext(nil, func(*Worker) { ran.Add(1) })
	if err != nil {
		t.Fatalf("SubmitContext(nil) = %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("%d of 3 roots ran", n)
	}
}

// Cancelling mid-run must abort promptly, return ctx.Err, account every
// spawned task as either run or cancelled, and leave the pool reusable.
func TestRunContextCancelMidRun(t *testing.T) {
	p := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const tasks = 400
	var count atomic.Int64
	errCh := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		errCh <- p.RunContext(ctx, func(w *Worker) {
			for i := 0; i < tasks; i++ {
				w.Spawn(func(w *Worker) {
					count.Add(1)
					awaitAbort(t, w) // a task in hand outlasts the cancellation, whenever that comes
				})
			}
			close(started)
		})
	}()
	<-started
	waitFor(t, 10*time.Second, "a spawned task to start", func() bool { return count.Load() > 0 })
	cancel()
	var err error
	select {
	case err = <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ran, cancelled := count.Load(), p.Stats().TasksCancelled
	if cancelled == 0 {
		t.Fatalf("a cancellation no task in hand could outrun discarded no tasks (ran %d of %d)", ran, tasks)
	}
	// Conservation: every spawned task either executed (workers finish the
	// task in hand before stopping) or was drained and counted.
	if ran+cancelled != tasks {
		t.Fatalf("ran %d + cancelled %d != %d spawned", ran, cancelled, tasks)
	}
	var again atomic.Int64
	p.Run(func(w *Worker) {
		for i := 0; i < 50; i++ {
			w.Spawn(func(*Worker) { again.Add(1) })
		}
	})
	if again.Load() != 50 {
		t.Fatalf("pool ran %d of 50 tasks after a cancelled run", again.Load())
	}
}

// A deadline behaves like a cancel: the running task cannot be preempted,
// but work it spawns after the deadline never runs and is counted.
func TestRunContextDeadlineExpires(t *testing.T) {
	p := New(Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var ran atomic.Int64
	err := p.RunContext(ctx, func(w *Worker) {
		awaitAbort(t, w) // outlive the deadline, and the watcher that aborts the run on it
		for i := 0; i < 100; i++ {
			w.Spawn(func(*Worker) { ran.Add(1) })
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d tasks spawned after the deadline still executed", got)
	}
	if got := p.Stats().TasksCancelled; got != 100 {
		t.Fatalf("TasksCancelled = %d, want 100", got)
	}
}

// A context that is already cancelled must abort before any worker runs
// anything: the root is discarded and counted, whether it landed in the
// deque or (via a refused push) was handed off through the injector.
func TestRunContextPreCancelled(t *testing.T) {
	cases := []struct {
		name  string
		setup func(p *Pool)
	}{
		{"root-in-deque", func(*Pool) {}},
		{"root-in-handoff", func(p *Pool) {
			p.workers[0].dq = &rejectFirstPush{Dequer: p.workers[0].dq}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{Workers: 2})
			tc.setup(p)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var ran atomic.Bool
			err := p.RunContext(ctx, func(*Worker) { ran.Store(true) })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran.Load() {
				t.Fatal("root executed under a pre-cancelled context")
			}
			if got := p.Stats().TasksCancelled; got != 1 {
				t.Fatalf("TasksCancelled = %d, want 1 (the discarded root)", got)
			}
			var count atomic.Int64
			p.Run(func(w *Worker) { count.Add(1) })
			if count.Load() != 1 {
				t.Fatal("pool unusable after a pre-cancelled RunContext")
			}
		})
	}
}

// The happy path: a context that is never cancelled changes nothing.
func TestRunContextCompletesReturnsNil(t *testing.T) {
	p := New(Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got int
	if err := p.RunContext(ctx, func(w *Worker) { got = fibPar(w, 15, 5) }); err != nil {
		t.Fatalf("err = %v for an uncancelled run", err)
	}
	if want := fibSerial(15); got != want {
		t.Fatalf("fib(15) = %d, want %d", got, want)
	}
}

// A task panic under a live context re-panics from RunContext exactly as
// it does from Run; the context machinery must not swallow it.
func TestRunContextTaskPanicRePanics(t *testing.T) {
	p := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = p.RunContext(ctx, func(*Worker) { panic("task failure") })
	}()
	if recovered != "task failure" {
		t.Fatalf("recovered %v, want the task panic", recovered)
	}
}

// Two overlapping runs on one pool must panic loudly instead of corrupting
// the session.
func TestConcurrentRunPanics(t *testing.T) {
	p := New(Config{Workers: 2})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(*Worker) { <-release })
	}()
	waitFor(t, 10*time.Second, "first run in flight", inPhase(p, phaseBatch))
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Run(func(*Worker) {})
	}()
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("first run did not finish")
	}
	if recovered == nil || !strings.Contains(fmt.Sprint(recovered), "concurrently") {
		t.Fatalf("recovered %v, want the concurrent-run panic", recovered)
	}
}

// Cancellation must unwind a Join that is blocked on a future whose task
// is stuck on another worker — the joiner observes poolAbortedError while
// the stuck task is still blocked, exactly like a panic abort.
func TestRunContextCancelUnblocksJoin(t *testing.T) {
	p := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	stolen := make(chan struct{})
	var joinUnwound atomic.Bool
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.RunContext(ctx, func(w *Worker) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(poolAbortedError); ok {
						joinUnwound.Store(true)
					}
					panic(r) // re-raise; exec's recover feeds recordPanic, which the cancel already won
				}
			}()
			f := Fork(w, func(*Worker) int {
				close(stolen) // only a thief can get here while root blocks below
				<-release
				return 1
			})
			<-stolen
			_ = f.Join(w) // no visible work anywhere: blocks until the abort
		})
	}()
	select {
	case <-stolen:
	case <-time.After(10 * time.Second):
		t.Fatal("forked task was never stolen")
	}
	time.Sleep(10 * time.Millisecond) // let the root block inside Join
	cancel()
	// The joiner must unwind while the forked task is still blocked: proof
	// that cancellation does not wait on stuck tasks it cannot preempt.
	waitFor(t, 10*time.Second, "Join unwound with poolAbortedError", joinUnwound.Load)
	close(release) // now let the stuck task finish so the run can terminate
	var err error
	select {
	case err = <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after the stuck task was released")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelUnwindsHelpingWaiter pins the between-tasks abort
// check in the Group.Wait/Join help loops: a root waiting on a deep
// backlog of its own tasks must unwind at the next task boundary when the
// run is cancelled, not help-drain the whole backlog first (which would
// return context.Canceled with TasksCancelled == 0 after the full run
// time).
func TestRunContextCancelUnwindsHelpingWaiter(t *testing.T) {
	p := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const tasks = 300
	var ran atomic.Int64
	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.RunContext(ctx, func(w *Worker) {
			g := NewGroup()
			for i := 0; i < tasks; i++ {
				g.Spawn(w, func(w *Worker) {
					ran.Add(1)
					awaitAbort(t, w) // a task in hand outlasts the cancellation, whenever that comes
				})
			}
			close(started)
			g.Wait(w) // helps: pops and runs the backlog itself
		})
	}()
	<-started
	waitFor(t, 10*time.Second, "a member to start", func() bool { return ran.Load() > 0 })
	cancel()
	var err error
	select {
	case err = <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancelling a helping waiter")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancelled := p.Stats().TasksCancelled
	if cancelled == 0 {
		t.Fatalf("helping waiter drained its whole backlog after cancel (ran %d of %d, cancelled 0)", ran.Load(), tasks)
	}
	if got := ran.Load() + int64(cancelled); got != tasks {
		t.Fatalf("ran %d + cancelled %d != %d spawned", ran.Load(), cancelled, tasks)
	}
}

// A spawn that finds its deque full runs inline, and an inline run is a
// task start like a pop: after the abort it is discarded and counted, as
// the one spawn that fit the deque is — not run, and not an inline run —
// and a Group.Wait on the discarded members unwinds through help.
func TestRunContextCancelDropsInlineSpawns(t *testing.T) {
	p := New(Config{Workers: 1, DequeCapacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran, waited atomic.Int64
	err := p.RunContext(ctx, func(w *Worker) {
		cancel()
		awaitAbort(t, w)
		g := NewGroup()
		for i := 0; i < 10; i++ {
			g.Spawn(w, func(*Worker) { ran.Add(1) })
		}
		g.Wait(w)
		waited.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d of 10 children spawned after the abort ran", got)
	}
	if waited.Load() != 0 {
		t.Error("a Group.Wait on discarded members returned instead of unwinding")
	}
	st := p.Stats()
	if st.TasksCancelled != 10 || st.InlineRuns != 0 {
		t.Errorf("TasksCancelled = %d, InlineRuns = %d; want 10 discarded spawns and no inline run", st.TasksCancelled, st.InlineRuns)
	}
}

// A Run's controller that a stop woke before its run ended waits for the
// batch Handle's word (endSession): a finish that won the claim of the
// run's end may still be on its way to the word, which the next Run
// resets. Freeze a RunContext's context watcher between its winning claim
// and the word, stop the session with an injected loop panic, and the
// RunContext must not return until the watcher goes on; the next Run then
// ends with its own outcome, not the frozen watcher's.
func TestSessionEndWaitsForClaimWinner(t *testing.T) {
	defer fault.Reset()
	p := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var started, armed, returned atomic.Bool
	var recovered any
	fault.Enable(fpRunAfterClaim, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	go func() {
		defer returned.Store(true)
		defer func() { recovered = recover() }()
		_ = p.RunContext(ctx, func(w *Worker) {
			// The root holds its worker until the loop panic is armed, so
			// that the worker trips it in its first idle round.
			started.Store(true)
			spinUntil(t, "the loop panic to be armed", armed.Load)
		})
	}()
	// Cancelled once the root runs, so that the watcher, not RunContext's
	// own check of a context cancelled already, claims the run.
	waitFor(t, 10*time.Second, "the root to start", started.Load)
	cancel()
	waitFor(t, 10*time.Second, "the watcher frozen after its claim", func() bool { return fault.Suspended(fpRunAfterClaim) == 1 })
	fault.Enable(fpLoopBeforeSteal, fault.Rule{Action: fault.ActionPanic, OneShot: true})
	armed.Store(true)
	waitFor(t, 10*time.Second, "the session to stop", func() bool { return returned.Load() || p.phase.Load() == phaseStopping })
	if time.Sleep(50 * time.Millisecond); returned.Load() {
		t.Fatal("RunContext returned while the finish that claimed its run had not ended the Handle's word")
	}
	fault.Resume(fpRunAfterClaim)
	waitFor(t, 10*time.Second, "RunContext to return once the watcher went on", returned.Load)
	if ip, ok := recovered.(fault.InjectedPanic); !ok || ip.Point != fpLoopBeforeSteal {
		t.Fatalf("RunContext panicked with %v, want the InjectedPanic at %s", recovered, fpLoopBeforeSteal)
	}
	var ran atomic.Bool
	if err := p.RunContext(context.Background(), func(*Worker) { ran.Store(true) }); err != nil || !ran.Load() {
		t.Fatalf("the next RunContext = %v, root ran: %v; want nil, true", err, ran.Load())
	}
}
