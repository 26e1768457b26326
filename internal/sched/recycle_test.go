// Tests for record recycling (future.go, parallel.go, group.go; DESIGN.md
// §7, "Record recycling"): the Futures inside Join2, the range records of
// Reduce and ParallelFor and the records of spawned tasks are reused by the
// worker that freed them, so these tests reuse them across steals, aborts,
// result types, a thief's long burst, the caller-runs worker and a fleet
// that shrinks and grows — on all three deques, and meant for the race
// detector: a record touched after it was freed is a data race with its
// next user.
package sched

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/fault"
)

// listed walks the slots below w's depths of free Futures and of free range
// records as records of result type T, and reports for each list whether
// it holds them (an empty one does). A listed record is pending, holds no
// result and no user function — a range record's fn is its own compute —
// and is listed once (seen spans the pool).
func listed[T any](t *testing.T, w *Worker, seen map[any]bool) (futures, ranges bool) {
	t.Helper()
	check := func(f *Future[T], ownFn bool) {
		if seen[f] {
			t.Errorf("worker %d lists a record that is listed already", w.id)
		}
		seen[f] = true
		if (f.fn != nil) != ownFn || f.ch.p.Load() != nil || !reflect.ValueOf(&f.result).Elem().IsZero() {
			t.Errorf("worker %d lists a record that is in use or still holds user data", w.id)
		}
	}
	futures, ranges = true, true
	for _, slot := range w.futures[:w.nFutures] {
		f, ok := slot.(*Future[T])
		if futures = ok; !ok {
			break
		}
		check(f, false)
	}
	for _, slot := range w.ranges[:w.nRanges] {
		r, ok := slot.(*rangeTask[T])
		if ranges = ok; !ok {
			break
		}
		check(&r.Future, true)
		if r.leaf != nil || r.combine != nil || r.body != nil {
			t.Errorf("worker %d lists a range record that still holds a function of its split", w.id)
		}
	}
	return futures, ranges
}

// checkFreeLists inspects every worker's free lists once the pool's session
// has ended (the workers have exited, so their plain fields are the
// caller's to read): depths within the bound; Futures and range records as
// above, each list of one of the result types whose listed is given; the
// records of spawned tasks empty and listed once; the child scopes emptied,
// cleared and listed once.
func checkFreeLists(t *testing.T, p *Pool, types ...func(*testing.T, *Worker, map[any]bool) (bool, bool)) {
	t.Helper()
	seen := map[any]bool{}
	for _, w := range p.workers {
		for _, n := range []int32{w.nFutures, w.nRanges, w.nGroupTasks, w.nScopes} {
			if n < 0 || n > maxFreeRecords {
				t.Fatalf("worker %d lists %d Futures, %d range records, %d group records and %d scopes, bound %d",
					w.id, w.nFutures, w.nRanges, w.nGroupTasks, w.nScopes, maxFreeRecords)
			}
		}
		knownFutures, knownRanges := false, false
		for _, listed := range types {
			f, r := listed(t, w, seen)
			knownFutures, knownRanges = knownFutures || f, knownRanges || r
		}
		if !knownFutures {
			t.Errorf("worker %d lists Futures as %T", w.id, w.futures[0])
		}
		if !knownRanges {
			t.Errorf("worker %d lists range records as %T", w.id, w.ranges[0])
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
		for _, s := range w.scopes[:w.nScopes] {
			if seen[s] {
				t.Errorf("worker %d lists a scope that is listed already", w.id)
			}
			seen[s] = true
			if s.refs.Load() != 0 || s.parent != nil || s.run != nil {
				t.Errorf("worker %d lists a scope that still counts tasks or names its parent or run", w.id)
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

// Recycled records across steals: three forced in the fib, one in the
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
		checkFreeLists(t, p, listed[int], listed[struct{}])
	})
}

// Emptied child scopes go to the list of the worker whose release emptied
// them, and that worker's next split takes one: round after round of
// Join2, Reduce and ParallelFor trees on four workers, with failpoints in
// front of every steal varying where the steals land, compute and count
// exactly, and every listed scope is cleared and listed once.
func TestRecycleScopes(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		defer fault.Reset()
		fault.Enable(fpStealBeforePopTop, fault.Rule{Action: fault.ActionYield, EveryNth: 2})
		rounds := 20
		if testing.Short() {
			rounds = 5
		}
		p := newPool(kind, Config{Workers: 4})
		before := p.Stats()
		for round := 0; round < rounds; round++ {
			for _, tree := range countTrees() {
				start := p.Stats()
				ok := false
				runWithin(t, p, func(w *Worker) { ok = tree.run(w) })
				if !ok {
					t.Fatalf("round %d: %s computed wrong", round, tree.name)
				}
				checkCountDelta(t, tree.name, start, p.Stats(), tree.tasks)
			}
			fib := 0
			runWithin(t, p, func(w *Worker) { fib = stolenFib(t, w, 12, 0) })
			if fib != fibSerial(12) {
				t.Fatalf("round %d: fib(12) = %d", round, fib)
			}
		}
		scopes := int32(0)
		for _, w := range p.workers {
			scopes += w.nScopes
		}
		if steals := p.Stats().Steals - before.Steals; steals < int64(3*rounds) || scopes == 0 {
			t.Errorf("%d steals and %d listed scopes after %d rounds, want 3 steals a round and a listed scope at least", steals, scopes, rounds)
		}
		checkFreeLists(t, p, listed[int], listed[struct{}])
	})
}

// A joiner unwound by an abort leaves its worker's token installed in the
// record it abandons, and that record's completer sends a token to it
// later. The same joiner's next block, in a fresh Run, drains the stale
// token before it installs: it sleeps until its own fork completes, and
// wakes then. The pool starts each Run with worker 0 alone in the fleet,
// so the root — the joiner — runs there, and grows it to two for a thief.
func TestRecycleJoinToken(t *testing.T) {
	p := New(Config{Workers: 1, MaxWorkers: 2})
	w0 := p.workers[0]
	one := func(*Worker) int { return 1 }
	// blockedJoin forks a Join2 half that spins, stolen, until the joiner
	// has installed its token in the half's Future, and then until done.
	blockedJoin := func(w *Worker, done func() bool) int {
		if w != w0 {
			t.Errorf("the root runs on worker %d", w.ID())
			return 0
		}
		if err := p.Resize(2); err != nil {
			t.Errorf("Resize(2): %v", err)
			return 0
		}
		Join2(w, one, one) // stocks the list with a Future[int]
		f := w.futures[w.nFutures-1].(*Future[int])
		var started atomic.Bool
		got, _ := Join2(w, func(*Worker) int {
			started.Store(true)
			spinUntil(t, "the joiner to install its token", func() bool { return f.ch.p.Load() == &w0.joinCh })
			spinUntil(t, "the joiner to be done waiting", done)
			return 7
		}, func(*Worker) int {
			spinUntil(t, "the fork to be stolen", started.Load)
			return 0
		})
		return got
	}

	ctx, cancel := context.WithCancel(context.Background())
	var unwound atomic.Bool
	err := p.RunContext(ctx, func(w *Worker) {
		defer unwound.Store(true)
		blockedJoin(w, func() bool { cancel(); return unwound.Load() })
		t.Error("the join returned from an aborted Run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if len(w0.joinCh) != 1 {
		t.Fatalf("%d tokens pending on the joiner's worker after the abandoned join's fork completed, want 1", len(w0.joinCh))
	}

	if err := p.Resize(1); err != nil {
		t.Fatalf("Resize(1): %v", err)
	}
	got := 0
	runWithin(t, p, func(w *Worker) { got = blockedJoin(w, func() bool { return true }) })
	if got != 7 {
		t.Fatalf("the join returned %d, want 7", got)
	}
	if len(w0.joinCh) != 0 {
		t.Fatalf("%d tokens left pending after the join woke on its own", len(w0.joinCh))
	}
}

// A range fork stolen mid-tree whose subtree panics: its task ends in the
// thief's recover, never finished, and its joiner unwinds through the
// abort, so the record is abandoned — on no worker's list afterwards — and
// the pool computes right again.
func TestRecycleStolenRangePanicAbandonsRecord(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		const leaves = 64
		p := newPool(kind, Config{Workers: 2})
		ident := func(i int) int { return i }
		add := func(a, b int) int { return a + b }
		var started [leaves]atomic.Bool
		leaf := func(i int) int {
			started[i].Store(true)
			switch i {
			case 0: // the right half leaves the worker only by a steal
				spinUntil(t, "the right half to be stolen", started[leaves/2].Load)
			case leaves / 2: // the stolen half's first leaf
				panic("boom")
			}
			return i
		}
		var stolen any
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			p.Run(func(w *Worker) {
				Reduce(w, 0, 2, 1, ident, add) // stocks w's list with one range record
				stolen = w.ranges[w.nRanges-1] // the one the first split takes
				Reduce(w, 0, leaves, 1, leaf, add)
			})
			return nil
		}()
		if rec != "boom" {
			t.Fatalf("Run panicked with %v, want the leaf's panic", rec)
		}
		for _, w := range p.workers {
			for _, r := range w.ranges[:w.nRanges] {
				if r == stolen {
					t.Errorf("worker %d lists the range record whose task panicked", w.id)
				}
			}
		}
		checkFreeLists(t, p, listed[int])
		for round := 0; round < 3; round++ {
			got := 0
			p.Run(func(w *Worker) { got = Reduce(w, 0, leaves, 1, ident, add) })
			if got != leaves*(leaves-1)/2 {
				t.Fatalf("after the panic, round %d: sum = %d", round, got)
			}
		}
		checkFreeLists(t, p, listed[int])
	})
}

// A Reduce whose leaves Join2 over its own result type takes range records
// and Futures of one type from two lists: neither empties the other, so
// once both are stocked nothing is allocated.
func TestRecycleReduceOfJoin2AllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const leaves = 64
	one := func(*Worker) int { return 1 }
	add := func(a, b int) int { return a + b }
	New(Config{Workers: 1}).Run(func(w *Worker) {
		leaf := func(int) int { return add(Join2(w, one, one)) } // one worker: w runs every leaf
		got := 0
		if allocs := testing.AllocsPerRun(50, func() { got = Reduce(w, 0, leaves, 1, leaf, add) }); allocs != 0 {
			t.Errorf("a Reduce over %d leaves that Join2 allocates %v objects, want 0", leaves, allocs)
		}
		if got != 2*leaves {
			t.Errorf("sum = %d, want %d", got, 2*leaves)
		}
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
				checkFreeLists(t, p, listed[int])
				for i := 0; i < 3; i++ {
					got := 0
					p.Run(func(w *Worker) { got = fibPar(w, 15, 2) })
					if got != fibSerial(15) {
						t.Fatalf("after the abort, fib(15) = %d", got)
					}
				}
				checkFreeLists(t, p, listed[int])
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
			checkFreeLists(t, p, listed[int], listed[string])
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
		checkFreeLists(t, p, listed[int])
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
			if w.futures[0] != nil || w.ranges[0] != nil || w.groupTasks[0] != nil || w.scopes[0] != nil ||
				w.nFutures != 0 || w.nRanges != 0 || w.nGroupTasks != 0 || w.nScopes != 0 {
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
		checkFreeLists(t, p, listed[int])
	})
}

// The run records of sequential submissions come back from the pool of
// records (serve.go, runRecords): on one worker, whichever of the root scope
// and the submitter lets go last puts the record back, and the next Submit
// takes it. sync.Pool keeps a record per processor and drops records on
// purpose under the race detector, so this counts records, loosely.
func TestRecycleRunReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	p := New(Config{Workers: 1})
	stop := startServing(t, p)
	const subs = 100
	seen := map[*run]bool{}
	for i := 0; i < subs; i++ {
		var r *run
		h, err := p.Submit(func(w *Worker) { r = w.currentRun() })
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if err := h.Wait(); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		seen[r] = true
	}
	if n := len(seen); n > 8 {
		t.Errorf("%d sequential submissions ran in %d distinct run records, want a handful", subs, n)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// Recycled run records carry every kind of submission end across each
// other: completed, cancelled while its root runs, panicked with its own
// id, run on the caller by a full injector, and rejected by a Drain that
// closes the first of two sessions — or, pushed as that session stops,
// aborted by their own Submit. Each Handle must report its own
// submission's fate — a record reused before a holder was done with it
// would hand one submission's outcome, abort or completion to another — and
// TasksRun must count exactly the tasks that ran on the pool's workers.
func TestRecycleRunIsolation(t *testing.T) {
	const submitters, subs = 4, 500
	p := New(Config{Workers: 2, InjectorCapacity: 2, Overload: ShedCallerRuns})
	// serve starts a session; the second is started from a submitter's
	// goroutine, so it reports with t.Error.
	serve := func() chan error {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		served := make(chan error, 1)
		go func() { served <- p.Serve(ctx) }()
		for deadline := time.Now().Add(10 * time.Second); !inPhase(p, phaseServing)(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("the pool did not start serving within 10 s")
				break
			}
		}
		return served
	}
	served := serve()
	var onPool, next, done, stopped atomic.Int64
	// task counts a task body, if it runs on one of the pool's workers
	// (Join2's second function runs inline in its caller's task).
	task := func(w *Worker) {
		if w.ID() < len(p.workers) {
			onPool.Add(1)
		}
	}
	// submit makes one submission of kind id%4 and checks its fate, trying
	// again while admission is closed.
	submit := func(id int64) {
		for {
			ctx, cancel := context.WithCancel(context.Background())
			var want error
			var value atomic.Int64
			root := func(w *Worker) {
				task(w)
				a, b := Join2(w, func(w *Worker) int64 { task(w); return id }, func(*Worker) int64 { return 1 })
				value.Store(a + b)
			}
			switch id % 4 {
			case 1: // cancelled while its root runs
				want = context.Canceled
				root = func(w *Worker) {
					task(w)
					cancel()
					for w.currentRun().state.Load() == runLive {
						runtime.Gosched()
					}
				}
			case 2: // panics with its own id
				want = PanicError{Value: id}
				root = func(w *Worker) {
					task(w)
					panic(id)
				}
			}
			h, err := p.SubmitContext(ctx, root)
			if errors.Is(err, ErrDraining) || errors.Is(err, ErrNotServing) {
				cancel()
				runtime.Gosched()
				continue
			}
			if err != nil {
				cancel()
				t.Errorf("submission %d: SubmitContext: %v", id, err)
				return
			}
			err = h.Wait()
			cancel()
			switch {
			case err == ErrStopped:
				// Gated in the first session, pushed as it stopped: the
				// Submit aborted its own run (SubmitContext's re-check).
				stopped.Add(1)
			case want != nil && err != want:
				t.Errorf("submission %d of kind %d ended %v, want %v", id, id%4, err, want)
			case want == nil && err != nil:
				t.Errorf("submission %d ended %v, want nil", id, err)
			case want == nil && value.Load() != id+1:
				t.Errorf("submission %d completed with the result %d, want %d", id, value.Load(), id+1)
			}
			if done.Add(1) == submitters*subs/2 {
				// Midway: the first session drains, and a second one serves
				// the rest.
				if err := p.Drain(context.Background()); err != nil {
					t.Errorf("Drain: %v", err)
				}
				if err := <-served; err != nil {
					t.Errorf("Serve after a Drain returned %v", err)
				}
				served = serve()
			}
			return
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < subs; i++ {
				submit(next.Add(1))
			}
		}()
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Errorf("final Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after the final Drain returned %v", err)
	}
	if n := stopped.Load(); n > submitters {
		t.Errorf("%d submissions ended ErrStopped; at most one a submitter can race the restart", n)
	}
	if got, want := p.Stats().TasksRun, onPool.Load(); got != want {
		t.Errorf("TasksRun = %d, but %d task bodies ran on the pool's workers", got, want)
	}
}
