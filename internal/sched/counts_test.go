// Tests for the owner-batched counters and the folded scope releases
// (pool.go's exec and flush, future.go's call; DESIGN.md §7, "Work-first
// join"): a popped-back call counts itself in its worker's owner block and
// leaves its release to the exec it runs under, so these tests pin what
// that must not change — Stats is exact once a submission has ended, a
// nested exec folds into its own scope only, and a long recursion of calls
// still shows the watchdog progress — on all three deques.
//
// The mutants each test catches:
//
//   - TestCountsExactAfterHandleWait: exec flushing after its release (a
//     Handle reads ended before the count lands);
//   - TestCountsNestedExecInJoin, and TestCountsExactAfterRun when its
//     steals happen to nest one: the fold count not reset at a nested exec,
//     which then releases the outer exec's calls in the stolen task's scope
//     (that scope never reaches zero, and the run hangs);
//   - TestCountsLongCallRecursionNoStall: no periodic flush;
//   - every test here: a call that both folds and releases (the root scope
//     never reaches zero).
//
// The package's other tests miss the first and the third; the chaos soak
// hangs on the second.
package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countTree is a computation of known size: its task count, the root
// included (its Spawns are one fewer), and a root that reports whether it
// computed right.
type countTree struct {
	name  string
	tasks int64
	run   func(w *Worker) bool
}

// countTrees are a Join2 recursion with no cutoff, a Reduce and a
// ParallelFor with one leaf per piece: every fork a task, nearly all of them
// popped back unless a steal takes them.
func countTrees() []countTree {
	const n, leaves = 14, 300
	return []countTree{
		{"Join2", int64(fibSerial(n + 1)), func(w *Worker) bool { return fibPar(w, n, 2) == fibSerial(n) }},
		{"Reduce", leaves, func(w *Worker) bool {
			return Reduce(w, 0, leaves, 1, func(i int) int { return i }, func(a, b int) int { return a + b }) == leaves*(leaves-1)/2
		}},
		{"ParallelFor", leaves, func(w *Worker) bool {
			var hits atomic.Int64
			ParallelFor(w, 0, leaves, 1, func(int) { hits.Add(1) })
			return hits.Load() == leaves
		}},
	}
}

// checkCountDelta fails t unless TasksRun and Spawns moved by exactly the
// tree's counts between two Stats reads.
func checkCountDelta(t *testing.T, what string, before, after Stats, tasks int64) {
	t.Helper()
	if ran, spawned := after.TasksRun-before.TasksRun, after.Spawns-before.Spawns; ran != tasks || spawned != tasks-1 {
		t.Fatalf("%s: TasksRun grew by %d and Spawns by %d, want %d and %d", what, ran, spawned, tasks, tasks-1)
	}
}

// runWithin runs root on p and fails t if the run has not returned in 10 s:
// a scope released past zero never completes its run.
func runWithin(t *testing.T, p *Pool, root func(*Worker)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(root)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the run did not complete: a scope was released past zero or never to it")
	}
}

// Once Run returns, TasksRun and Spawns have moved by exactly the tree's
// counts, round after round on one pool with steals in play.
func TestCountsExactAfterRun(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 4})
		for round := 0; round < 3; round++ {
			for _, tree := range countTrees() {
				before := p.Stats()
				ok := false
				runWithin(t, p, func(w *Worker) { ok = tree.run(w) })
				if !ok {
					t.Fatalf("round %d: %s computed wrong", round, tree.name)
				}
				checkCountDelta(t, tree.name, before, p.Stats(), tree.tasks)
			}
		}
	})
}

// Once a submission's Handle reads ended its counts are in Stats: read the
// moment a poll sees the word end, which is as early as anybody can, and
// again after Wait. One submission is in flight at a time, so the delta is
// its own, and one worker runs it, so nearly every task is a call folded
// into the root's release. (An exec that flushed after its release would
// still be closing the waiter's channel when the poll reads.)
func TestCountsExactAfterHandleWait(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 20
	}
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 1})
		stop := startServing(t, p)
		for round := 0; round < rounds; round++ {
			for _, tree := range countTrees() {
				var ok atomic.Bool
				before := p.Stats()
				h, err := p.Submit(func(w *Worker) { ok.Store(tree.run(w)) })
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				h.Done() // the channel a blocked Wait would install, for finish to close
				for deadline := time.Now().Add(10 * time.Second); !h.r.done.isDone(); {
					if time.Now().After(deadline) {
						t.Fatalf("round %d: %s never ended", round, tree.name)
					}
				}
				checkCountDelta(t, tree.name+" as it ends", before, p.Stats(), tree.tasks)
				if err := h.Wait(); err != nil || !ok.Load() {
					t.Fatalf("round %d: %s: Wait = %v, computed right %v", round, tree.name, err, ok.Load())
				}
				checkCountDelta(t, tree.name+" after Wait", before, p.Stats(), tree.tasks)
			}
		}
		if err := stop(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v", err)
		}
	})
}

// A Join whose help steals a task that pops back forks of its own: the
// stolen task runs in a nested exec on the joiner's worker, under the root's
// exec, which has calls of its own folded by then. Each exec releases its
// own calls in its own scope: the run completes, with exact counts.
func TestCountsNestedExecInJoin(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 2})
		const pre, nested = 12, 14
		var preOK, nestedOK, rootOn, nestedOn atomic.Int64
		before := p.Stats()
		runWithin(t, p, func(w *Worker) {
			rootOn.Store(int64(w.ID()))
			if fibPar(w, pre, 2) == fibSerial(pre) {
				preOK.Store(1) // the root's exec has calls folded from here on
			}
			var stolen, started atomic.Bool
			Join2(w,
				func(c *Worker) int {
					// The fork stays in this worker's deque while it spins: only
					// the joiner, helping, can take it — and it is there before
					// the joiner gets to help, which would block on an empty pool.
					x := Fork(c, func(d *Worker) int {
						nestedOn.Store(int64(d.ID()))
						started.Store(true)
						if fibPar(d, nested, 2) == fibSerial(nested) {
							nestedOK.Store(1)
						}
						return 0
					})
					stolen.Store(true)
					spinUntil(t, "the joiner to steal the fork", started.Load)
					return x.Join(c)
				},
				func(c *Worker) int {
					spinUntil(t, "the other worker to steal the fork", stolen.Load)
					return 0
				})
		})
		if preOK.Load() != 1 || nestedOK.Load() != 1 {
			t.Fatal("a recursion computed wrong")
		}
		if rootOn.Load() != nestedOn.Load() {
			t.Fatalf("the stolen fork ran on worker %d, not on the joiner's, %d", nestedOn.Load(), rootOn.Load())
		}
		// The root, the Join2 fork and the Fork, and both recursions' forks.
		tasks := int64(3 + fibSerial(pre+1) - 1 + fibSerial(nested+1) - 1)
		checkCountDelta(t, "nested exec", before, p.Stats(), tasks)
		if s := p.Stats(); s.Steals < 2 {
			t.Errorf("%d steals, want the two the test forces", s.Steals)
		}
	})
}

// A one-worker root that does nothing but pop back its forks for more than
// four StallTimeouts is making progress: its calls are flushed every
// callFlushPeriod, so the watchdog never reports it.
func TestCountsLongCallRecursionNoStall(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		const window = 40 * time.Millisecond
		var reports atomic.Int64
		p := newPool(kind, Config{Workers: 1, StallTimeout: window, OnStall: func(StallReport) { reports.Add(1) }})
		var calls int64
		runWithin(t, p, func(w *Worker) {
			for start := time.Now(); time.Since(start) < 5*window; {
				if fibPar(w, 16, 2) != fibSerial(16) {
					t.Error("fib computed wrong")
					return
				}
				calls += int64(fibSerial(17) - 1)
			}
		})
		if n, s := reports.Load(), p.Stats().StallsDetected; n != 0 || s != 0 {
			t.Fatalf("%d stall reports (Stats.StallsDetected %d) over %d popped-back calls", n, s, calls)
		}
		if got := p.Stats().TasksRun; got != calls+1 {
			t.Errorf("TasksRun = %d, want %d", got, calls+1)
		}
	})
}
