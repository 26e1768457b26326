// Tests for record recycling (future.go, group.go; DESIGN.md §7, "Record
// recycling"): the Futures inside Join2, Reduce and ParallelFor and the
// records of Group members are reused by the worker that freed them, so
// these tests reuse them across steals, aborts, result types, a thief's
// long burst, the caller-runs worker and a fleet that shrinks and grows —
// on all three deques, and meant for the race detector: a record touched
// after it was freed is a data race with its next user.
package sched

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/fault"
)

// listedFutures walks the slots below w's depth of free Futures as
// *Future[T] and reports false if they hold another result type. A listed
// Future is pending, holds no function and no result, and is listed once
// (seen spans the pool).
func listedFutures[T any](t *testing.T, w *Worker, seen map[any]bool) bool {
	t.Helper()
	for _, slot := range w.futures[:w.nFutures] {
		f, ok := slot.(*Future[T])
		if !ok {
			return false
		}
		if seen[f] {
			t.Errorf("worker %d lists a Future that is listed already", w.id)
		}
		seen[f] = true
		if f.fn != nil || f.ch.p.Load() != nil || !reflect.ValueOf(&f.result).Elem().IsZero() {
			t.Errorf("worker %d lists a Future that is in use or still holds user data", w.id)
		}
	}
	return true
}

// checkFreeLists inspects every worker's free lists once the pool's session
// has ended (the workers have exited, so their plain fields are the
// caller's to read): depths within the bound; Futures as above, of one of
// the result types whose listedFutures is given, or none at all; group
// records empty and listed once.
func checkFreeLists(t *testing.T, p *Pool, futures ...func(*testing.T, *Worker, map[any]bool) bool) {
	t.Helper()
	seen := map[any]bool{}
	for _, w := range p.workers {
		if w.nFutures < 0 || w.nFutures > maxFreeRecords || w.nGroupTasks < 0 || w.nGroupTasks > maxFreeRecords {
			t.Fatalf("worker %d lists %d Futures and %d group records, bound %d", w.id, w.nFutures, w.nGroupTasks, maxFreeRecords)
		}
		known := w.nFutures == 0
		for _, listed := range futures {
			known = known || listed(t, w, seen)
		}
		if !known {
			t.Errorf("worker %d lists Futures as %T", w.id, w.futures[0])
		}
		for _, r := range w.groupTasks[:w.nGroupTasks] {
			if seen[r] {
				t.Errorf("worker %d lists a group record that is listed already", w.id)
			}
			seen[r] = true
			if r.g != nil || r.fn != nil {
				t.Errorf("worker %d lists a group record that still holds its group or function", w.id)
			}
		}
	}
}

// stolenFib is fibPar with no cutoff — one task per call with n >= 2, so
// fibSerial(n+1) tasks with the root — whose top two levels keep the
// forking worker in the inline half until the forked half has started:
// elsewhere, so stolen.
func stolenFib(t *testing.T, w *Worker, n, depth int) int {
	if depth == 2 {
		return fibPar(w, n, 2)
	}
	var started atomic.Bool
	a, b := Join2(w,
		func(c *Worker) int { started.Store(true); return stolenFib(t, c, n-1, depth+1) },
		func(c *Worker) int {
			spinUntil(t, "the forked half to be stolen", started.Load)
			return stolenFib(t, c, n-2, depth+1)
		})
	return a + b
}

// Recycled Futures across steals: three forced in the fib, one in the
// Reduce (leaf 0 stays put until the right half has started), with the
// failpoints in front of every steal varying where they land. Results and
// task counts are exact round after round on one pool.
func TestRecycleAcrossForcedSteals(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		defer fault.Reset()
		fault.Enable(fpStealBeforePopTop, fault.Rule{Action: fault.ActionYield})
		fault.Enable(fpLoopBeforeSteal, fault.Rule{Action: fault.ActionDelay, Delay: 20 * time.Microsecond, EveryNth: 3})
		const n, leaves = 16, 600
		p := newPool(kind, Config{Workers: 4})
		for round := 0; round < 3; round++ {
			before := p.Stats()
			var started [leaves]atomic.Bool
			fib, sum, hits := 0, 0, make([]atomic.Int32, leaves)
			p.Run(func(w *Worker) {
				fib = stolenFib(t, w, n, 0)
				sum = Reduce(w, 0, leaves, 1, func(i int) int {
					started[i].Store(true)
					if i == 0 {
						spinUntil(t, "the right half to be stolen", started[leaves/2].Load)
					}
					return i
				}, func(a, b int) int { return a + b })
				ParallelFor(w, 0, leaves, 1, func(i int) { hits[i].Add(1) })
			})
			after := p.Stats()
			if fib != fibSerial(n) || sum != leaves*(leaves-1)/2 {
				t.Fatalf("round %d: fib(%d) = %d, sum = %d", round, n, fib, sum)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("round %d: ParallelFor visited index %d %d times", round, i, got)
				}
			}
			wantTasks := int64(fibSerial(n+1) + 2*(leaves-1)) // the root is in the fib's count
			if got := after.TasksRun - before.TasksRun; got != wantTasks {
				t.Errorf("round %d: ran %d tasks, want %d", round, got, wantTasks)
			}
			if got := after.Steals - before.Steals; got < 4 {
				t.Errorf("round %d: %d steals, want the 4 forced at least", round, got)
			}
		}
		checkFreeLists(t, p, listedFutures[int], listedFutures[struct{}])
	})
}

// A panic or a cancellation in the middle of a tree of joins and groups:
// the records in flight — forked and not joined, spawned and not run, or
// running when their joiner unwound — are left to the collector, so what
// the lists hold afterwards is clean, and the pool computes right again.
func TestRecycleAbortMidTreeAbandonsRecords(t *testing.T) {
	for _, mode := range []string{"panic", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			forEachDeque(t, func(t *testing.T, kind dequeKind) {
				p := newPool(kind, Config{Workers: 4})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var nodes atomic.Int64
				var tree func(w *Worker, n int) int
				tree = func(w *Worker, n int) int {
					if n < 2 {
						return n
					}
					if nodes.Add(1) == 700 {
						if mode == "panic" {
							panic("boom")
						}
						cancel()
						awaitAbort(t, w)
					}
					if n == 7 {
						var g Group
						for i := 0; i < 3; i++ {
							g.Spawn(w, func(c *Worker) { tree(c, 4) })
						}
						g.Wait(w)
					}
					a, b := Join2(w,
						func(c *Worker) int { return tree(c, n-1) },
						func(c *Worker) int { return tree(c, n-2) })
					return a + b
				}
				var err error
				rec := func() (rec any) {
					defer func() { rec = recover() }()
					err = p.RunContext(ctx, func(w *Worker) { tree(w, 18) })
					return nil
				}()
				if mode == "panic" && rec != "boom" {
					t.Fatalf("RunContext panicked with %v, want the task's panic", rec)
				}
				if mode == "cancel" && (rec != nil || !errors.Is(err, context.Canceled)) {
					t.Fatalf("RunContext = %v (panic %v), want context.Canceled", err, rec)
				}
				checkFreeLists(t, p, listedFutures[int])
				for i := 0; i < 3; i++ {
					got := 0
					p.Run(func(w *Worker) { got = fibPar(w, 15, 2) })
					if got != fibSerial(15) {
						t.Fatalf("after the abort, fib(15) = %d", got)
					}
				}
				checkFreeLists(t, p, listedFutures[int])
			})
		})
	}
}

// altFib is fib whose joins alternate between two result types from one
// level to the next, so every take finds the list holding the other type.
func altFib(w *Worker, n int) int {
	if n < 2 {
		return n
	}
	if n%2 == 0 {
		a, b := Join2(w,
			func(c *Worker) int { return altFib(c, n-1) },
			func(c *Worker) int { return altFib(c, n-2) })
		return a + b
	}
	a, b := Join2(w,
		func(c *Worker) string { return strconv.Itoa(altFib(c, n-1)) },
		func(c *Worker) int { return altFib(c, n-2) })
	v, _ := strconv.Atoi(a) // Itoa's own output
	return v + b
}

// A worker's list holds Futures of one result type: a take for another
// type allocates, and the Future it frees replaces the list. Results stay
// right whichever way the types interleave.
func TestRecycleJoin2AlternatingResultTypes(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		for _, workers := range []int{1, 4} {
			p := newPool(kind, Config{Workers: workers})
			const n = 15
			got := 0
			p.Run(func(w *Worker) { got = altFib(w, n) })
			if got != fibSerial(n) {
				t.Fatalf("%d workers: fib(%d) over alternating result types = %d", workers, n, got)
			}
			if ran := p.Stats().TasksRun; ran != int64(fibSerial(n+1)) {
				t.Errorf("%d workers: ran %d tasks, want %d", workers, ran, fibSerial(n+1))
			}
			checkFreeLists(t, p, listedFutures[int], listedFutures[string])
		}
	})
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	one := func(*Worker) int { return 1 }
	str := func(*Worker) string { return "1" }
	New(Config{Workers: 1}).Run(func(w *Worker) {
		if got := testing.AllocsPerRun(100, func() { Join2(w, one, one); Join2(w, str, one) }); got != 2 {
			t.Errorf("two joins of alternating result types allocate %v objects, want 2 (a Future each)", got)
		}
		if got := testing.AllocsPerRun(100, func() { Join2(w, str, one); Join2(w, str, one) }); got != 0 {
			t.Errorf("two joins of one result type allocate %v objects, want 0", got)
		}
	})
}

// One worker spawns a long burst of group members and stays in its task, so
// the other runs every one of them: the spawner's list stays empty, the
// thief's stops at the bound, and the records in between are garbage — the
// heap is as large after the burst as before it.
func TestRecycleGroupBurstRunByThief(t *testing.T) {
	members := 100_000
	if testing.Short() {
		members = 20_000
	}
	const batch = 1000 // inside every deque's capacity
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 2})
		var ran, elsewhere atomic.Int64
		var before, after runtime.MemStats
		var spawner *Worker
		p.Run(func(w *Worker) {
			spawner = w
			var g Group
			member := func(c *Worker) {
				if c != w {
					elsewhere.Add(1)
				}
				ran.Add(1)
			}
			runtime.GC()
			runtime.ReadMemStats(&before)
			for spawned := 0; spawned < members; {
				for i := 0; i < batch; i++ {
					g.Spawn(w, member)
				}
				spawned += batch
				spinUntil(t, "the other worker to run the batch", func() bool { return ran.Load() == int64(spawned) })
				// The ABP deque starts over from slot zero only when its
				// owner pops it empty, which this task otherwise never does.
				if left := w.dq.PopBottom(); left != nil {
					t.Errorf("a member was still in the deque after %d had run", spawned)
				}
			}
			g.Wait(w)
			runtime.GC()
			runtime.ReadMemStats(&after)
		})
		if ran.Load() != int64(members) || elsewhere.Load() != int64(members) {
			t.Fatalf("%d of %d members ran, %d of them on the other worker", ran.Load(), members, elsewhere.Load())
		}
		// Keeping every record (48 bytes) would hold 4.8 MB, 0.96 MB in
		// short mode.
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
			t.Errorf("heap grew by %d bytes over a burst of %d members", grew, members)
		}
		checkFreeLists(t, p, listedFutures[int])
		if n := spawner.nGroupTasks; n != 0 {
			t.Errorf("the spawner lists %d group records, having run none", n)
		}
	})
}

// fibAndFanOut is a submission that uses both kinds of record.
func fibAndFanOut(ok *atomic.Int64) func(*Worker) {
	return func(w *Worker) {
		var g Group
		var members atomic.Int64
		for i := 0; i < 8; i++ {
			g.Spawn(w, func(*Worker) { members.Add(1) })
		}
		fib := fibPar(w, 12, 2)
		g.Wait(w)
		if fib == fibSerial(12) && members.Load() == 8 {
			ok.Add(1)
		}
	}
}

// The caller-runs worker is made for one shed submission and dropped after
// it, lists and all: with the pool's own workers pinned in gated tasks, a
// shed submission computes right and leaves their lists as empty as a new
// pool's.
func TestRecycleCallerRunsKeepsItsLists(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 2, InjectorCapacity: 2, Overload: ShedCallerRuns})
		stop := startServing(t, p)
		release := plugWorkers(t, p)
		for i := 0; i < 2; i++ { // fill the two-slot injector
			if _, err := p.Submit(func(*Worker) {}); err != nil {
				t.Fatalf("fill Submit %d: %v", i, err)
			}
		}
		var ok atomic.Int64
		for i := 0; i < 3; i++ {
			if _, err := p.Submit(fibAndFanOut(&ok)); err != nil {
				t.Fatalf("caller-runs Submit: %v", err)
			}
		}
		if got := ok.Load(); got != 3 {
			t.Fatalf("%d of 3 shed submissions computed right before Submit returned", got)
		}
		if got := p.Stats().SubmitsCallerRun; got != 3 {
			t.Fatalf("Stats.SubmitsCallerRun = %d, want 3", got)
		}
		for _, w := range p.workers {
			if w.futures[0] != nil || w.groupTasks[0] != nil || w.nFutures != 0 || w.nGroupTasks != 0 {
				t.Errorf("worker %d, gated since the pool was made, has a free list", w.id)
			}
		}
		release()
		if err := stop(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v", err)
		}
	})
}

// A worker that retires sleeps on its lists — the slot keeps its goroutine —
// and has them when a grow wakes it, and no record is ever on two workers'
// lists.
func TestRecycleAcrossShrinkAndGrow(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 4, ParkThreshold: 2})
		stop := startServing(t, p)
		var ok atomic.Int64
		submitted := int64(0)
		burst := func(n int) {
			t.Helper()
			handles := make([]*Handle, 0, n)
			for i := 0; i < n; i++ {
				h, err := p.Submit(fibAndFanOut(&ok))
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				handles = append(handles, h)
			}
			for _, h := range handles {
				if err := h.Wait(); err != nil {
					t.Fatalf("Wait: %v", err)
				}
			}
			submitted += int64(n)
			if got := ok.Load(); got != submitted {
				t.Fatalf("%d of %d submissions computed right", got, submitted)
			}
		}
		burst(40)
		if err := p.Resize(1); err != nil {
			t.Fatalf("Resize(1): %v", err)
		}
		waitFor(t, 10*time.Second, "three workers to retire", func() bool { return p.Stats().WorkersRetired == 3 })
		burst(20)
		if err := p.Resize(4); err != nil {
			t.Fatalf("Resize(4): %v", err)
		}
		burst(40)
		if err := stop(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v", err)
		}
		checkFreeLists(t, p, listedFutures[int])
	})
}
