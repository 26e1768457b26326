// Tests for the work-first join (future.go; DESIGN.md §7, "Work-first
// join"): a fork its joiner pops back unstarted runs as a plain call, and
// keeps every check a task start makes — the abort gate, the counters, the
// failpoint, the recover — on all three deques. Each pins behaviour that
// the join had before it took the shortcut.
package sched

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/fault"
)

// panicFib is fib that panics with "boom" at its first call with n == 2:
// deep in the inline half of every join above it, with those joins' forks
// still in the deque.
func panicFib(w *Worker, n int, tripped *bool) int {
	if n < 2 {
		return n
	}
	if n == 2 && !*tripped {
		*tripped = true
		panic("boom")
	}
	a, b := Join2(w,
		func(c *Worker) int { return panicFib(c, n-1, tripped) },
		func(c *Worker) int { return panicFib(c, n-2, tripped) })
	return a + b
}

// A panic inside a Join2 child that its joiner popped back: the run ends
// with the original value, every joiner above unwinds with
// poolAbortedError carrying it, and every spawn is accounted for once — run
// (the panicking calls included, as exec counts them), or dropped.
func TestWorkFirstPanicInPoppedBackChild(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 1})
		var joinerSaw any
		tripped := false
		runPanic := func() (rec any) {
			defer func() { rec = recover() }()
			p.Run(func(w *Worker) {
				defer func() { joinerSaw = recover() }()
				Join2(w,
					func(c *Worker) int { return panicFib(c, 10, &tripped) },
					func(c *Worker) int { return fibPar(c, 10, 2) })
			})
			return nil
		}()
		if runPanic != "boom" {
			t.Fatalf("Run panicked with %v, want the child's panic value", runPanic)
		}
		if pe, ok := joinerSaw.(poolAbortedError); !ok || pe.cause != "boom" {
			t.Fatalf("the joiner recovered %#v, want poolAbortedError carrying \"boom\"", joinerSaw)
		}
		s := p.Stats()
		if got, want := s.TasksRun+s.TasksCancelled+s.TasksDropped, s.Spawns+1; got != want {
			t.Errorf("TasksRun %d + TasksCancelled %d + TasksDropped %d = %d, want Spawns + 1 = %d",
				s.TasksRun, s.TasksCancelled, s.TasksDropped, got, want)
		}
		if s.TasksDropped == 0 || s.InlineRuns != 0 {
			t.Errorf("TasksDropped = %d, InlineRuns = %d; want the forks the unwound joins left in the deque dropped, none inline",
				s.TasksDropped, s.InlineRuns)
		}
		checkFreeLists(t, p, listedFutures[int])
		got := 0
		p.Run(func(w *Worker) { got = fibPar(w, 15, 2) })
		if got != fibSerial(15) {
			t.Fatalf("after the panic, fib(15) = %d", got)
		}
	})
}

// A submission cancelled before its join: the fork the joiner pops back is
// discarded, not run, and counted under TasksCancelled — through Join2's
// recycled Future and through a public Fork's.
func TestWorkFirstCancelledJoinDropsPoppedBackFork(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		for _, form := range []string{"Join2", "Fork"} {
			p := newPool(kind, Config{Workers: 1})
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Bool
			var joinerSaw any
			child := func(*Worker) int { ran.Store(true); return 1 }
			err := p.RunContext(ctx, func(w *Worker) {
				defer func() { joinerSaw = recover() }()
				if form == "Join2" {
					Join2(w, child, func(c *Worker) int { cancel(); awaitAbort(t, c); return 2 })
					return
				}
				f := Fork(w, child)
				cancel()
				awaitAbort(t, w)
				f.Join(w)
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: RunContext = %v, want context.Canceled", form, err)
			}
			if ran.Load() {
				t.Errorf("%s: the fork ran after its submission was cancelled", form)
			}
			if pe, ok := joinerSaw.(poolAbortedError); !ok || !errors.Is(pe.cause.(error), context.Canceled) {
				t.Errorf("%s: the joiner recovered %#v, want poolAbortedError carrying context.Canceled", form, joinerSaw)
			}
			if s := p.Stats(); s.TasksCancelled != 1 || s.TasksRun != 1 || s.Spawns != 1 {
				t.Errorf("%s: TasksCancelled = %d, TasksRun = %d, Spawns = %d; want 1, 1 (the root), 1",
					form, s.TasksCancelled, s.TasksRun, s.Spawns)
			}
		}
	})
}

// A Spawn and a fire-and-forget Fork left above the joiner's fork by the
// inline half: the first pop is not the joiner's own task, so it starts the
// way help starts it, and the join carries on to its own fork. Every task
// runs once, last in first out, and every result is right.
func TestWorkFirstFallbackRunsTasksLeftAboveFork(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 1})
		var order []string
		var a, b, c int
		p.Run(func(w *Worker) {
			var loose *Future[int]
			a, b = Join2(w,
				func(*Worker) int { order = append(order, "joined fork"); return 1 },
				func(x *Worker) int {
					x.Spawn(func(*Worker) { order = append(order, "spawn") })
					loose = Fork(x, func(*Worker) int { order = append(order, "loose fork"); return 3 })
					return 2
				})
			c = loose.Join(w)
		})
		if a != 1 || b != 2 || c != 3 {
			t.Fatalf("results %d, %d, %d; want 1, 2, 3", a, b, c)
		}
		if want := []string{"loose fork", "spawn", "joined fork"}; !reflect.DeepEqual(order, want) {
			t.Errorf("ran %q, want %q", order, want)
		}
		if s := p.Stats(); s.TasksRun != 4 || s.Spawns != 3 || s.InlineRuns != 0 {
			t.Errorf("TasksRun = %d, Spawns = %d, InlineRuns = %d; want 4, 3, 0", s.TasksRun, s.Spawns, s.InlineRuns)
		}
		checkFreeLists(t, p, listedFutures[int])
	})
}

// A fork the joiner pops back unstarted but that was counted in another
// scope: a task its helping Wait stole ran on the joiner's worker in a
// scope split off for it, forked there and returned without joining. The
// fork takes the fallback and runs in the scope it carries, as exec runs
// it, not in the joiner's.
func TestWorkFirstForeignScopeForkTakesFallback(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 2})
		var spawned, joined atomic.Bool
		var fut *Future[int]
		var ranIn, joinerIn *scope
		got := 0
		p.Run(func(w *Worker) {
			joinerIn = w.scope
			var g Group
			// The other worker takes this task and stays in it until the
			// join is over: it pushes the group's one member and can then
			// neither run it nor steal the fork.
			w.Spawn(func(z *Worker) {
				g.Spawn(z, func(x *Worker) {
					fut = Fork(x, func(c *Worker) int { ranIn = c.scope; return 7 })
				})
				spawned.Store(true)
				spinUntil(t, "the join", joined.Load)
			})
			spinUntil(t, "the group member to be spawned elsewhere", spawned.Load)
			g.Wait(w) // steals the member, which forks onto this worker's deque
			got = fut.Join(w)
			joined.Store(true)
		})
		if got != 7 {
			t.Fatalf("Join = %d, want 7", got)
		}
		if fut.task.scope == joinerIn {
			t.Fatal("the fork was counted in its joiner's scope: the task that forked it was not stolen")
		}
		if ranIn != fut.task.scope {
			t.Errorf("the fork ran in scope %p, want the scope it carries, %p (the joiner's is %p)", ranIn, fut.task.scope, joinerIn)
		}
	})
}

// The done-check comes before the pop: a fork that found the deque full
// ran inline and is done, and popping then would start an outer frame's
// fork early. One worker's ParallelFor leaf order and InlineRuns at
// DequeCapacity 1, 2 and 3 are what the join gave before the shortcut (the
// unbounded ChaseLev deque never runs a spawn inline).
func TestWorkFirstDequeCapacityLeafOrder(t *testing.T) {
	bounded := map[int]struct {
		order  []int
		inline int64
	}{
		1: {[]int{7, 6, 5, 4, 3, 2, 1, 0, 11, 10, 9, 8, 13, 12, 14, 15}, 11},
		2: {[]int{3, 2, 1, 0, 5, 4, 6, 7, 9, 8, 10, 11, 12, 13, 14, 15}, 5},
		3: {[]int{1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 1},
	}
	unbounded := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		for capacity := 1; capacity <= 3; capacity++ {
			p := newPool(kind, Config{Workers: 1, DequeCapacity: capacity})
			var order []int
			p.Run(func(w *Worker) {
				ParallelFor(w, 0, 16, 1, func(i int) { order = append(order, i) })
			})
			s := p.Stats()
			want, wantInline := bounded[capacity].order, bounded[capacity].inline
			if kind == dequeChaseLev {
				want, wantInline = unbounded, 0
			}
			if !reflect.DeepEqual(order, want) || s.InlineRuns != wantInline {
				t.Errorf("capacity %d: leaves %v, InlineRuns %d; want %v, %d",
					capacity, order, s.InlineRuns, want, wantInline)
			}
			if s.TasksRun != 16 || s.Spawns != 15 {
				t.Errorf("capacity %d: TasksRun = %d, Spawns = %d; want 16, 15", capacity, s.TasksRun, s.Spawns)
			}
		}
	})
}

// TestWatchdogSurfacesStalledWorker's shape, with the worker frozen at
// sched.exec.beforeRun on a Join2 child's way in through the joiner's
// pop: the watchdog surfaces it, exempting the retired slot beside it, and
// the run completes once it is resumed.
func TestWorkFirstWatchdogSurfacesStalledJoin2Child(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		defer fault.Reset()
		reports := make(chan StallReport, 16)
		const window = 25 * time.Millisecond
		// One worker runs, so the child cannot be stolen; the second slot is
		// retired, asleep and exempt.
		p := newPool(kind, Config{Workers: 1, MaxWorkers: 2, StallTimeout: window, OnStall: func(r StallReport) {
			select {
			case reports <- r:
			default:
			}
		}})
		childOn, sum := -1, 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Run(func(w *Worker) {
				// Armed from inside the root, past the root's own exec.
				fault.Enable(fpExecBeforeRun, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
				a, b := Join2(w,
					func(c *Worker) int { childOn = c.ID(); return 1 },
					func(*Worker) int { return 2 })
				sum = a + b
			})
		}()
		var rep StallReport
		select {
		case rep = <-reports:
		case <-time.After(10 * time.Second):
			fault.Reset()
			t.Fatal("watchdog never reported the frozen worker")
		}
		if rep.Worker != 0 {
			t.Fatalf("stall report names worker %d, want the joiner, 0", rep.Worker)
		}
		if rep.Stalled < window {
			t.Fatalf("reported stall of %v, want at least the %v window", rep.Stalled, window)
		}
		fault.Resume(fpExecBeforeRun)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("run did not complete after resuming the stalled worker")
		}
		if sum != 3 || childOn != 0 {
			t.Fatalf("Join2 = %d with the child on worker %d; want 3 on worker 0", sum, childOn)
		}
		if p.Stats().StallsDetected == 0 {
			t.Fatal("Stats.StallsDetected is zero after a reported stall")
		}
	})
}
