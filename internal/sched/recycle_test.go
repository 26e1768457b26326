// Tests for record recycling (future.go, parallel.go, group.go; DESIGN.md
// §7, "Record recycling"): the Futures inside Join2, the range records of
// Reduce and ParallelFor, the records of spawned tasks and Groups'
// generations are reused by the worker that freed them, so these tests
// reuse them across steals, aborts, result types, a thief's long burst and
// a fleet that shrinks and grows — on all three deques, and meant for the
// race detector: a record touched after it was freed is a data race with
// its next user.
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
// records of spawned tasks empty and listed once; Groups' generations
// ended — no member pending, no waiter in the slot — and listed once; the
// child scopes emptied, cleared and listed once.
func checkFreeLists(t *testing.T, p *Pool, types ...func(*testing.T, *Worker, map[any]bool) (bool, bool)) {
	t.Helper()
	seen := map[any]bool{}
	for _, w := range p.workers {
		for _, n := range []int32{w.nFutures, w.nRanges, w.nGroupTasks, w.nGroupRecs, w.nScopes} {
			if n < 0 || n > maxFreeRecords {
				t.Fatalf("worker %d lists %d Futures, %d range records, %d spawned tasks, %d group generations and %d scopes, bound %d",
					w.id, w.nFutures, w.nRanges, w.nGroupTasks, w.nGroupRecs, w.nScopes, maxFreeRecords)
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
				t.Errorf("worker %d lists a spawned task's record that is listed already", w.id)
			}
			seen[r] = true
			if r.g != nil || r.fn != nil {
				t.Errorf("worker %d lists a spawned task's record that still holds its group or function", w.id)
			}
		}
		for _, r := range w.groupRecs[:w.nGroupRecs] {
			if seen[r] {
				t.Errorf("worker %d lists a group generation that is listed already", w.id)
			}
			seen[r] = true
			if r.pending.Load() != 0 || r.sleeper.Load() != nil {
				t.Errorf("worker %d lists a group generation with %d members pending or a waiter in its slot", w.id, r.pending.Load())
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

// A joiner unwound by an abort — woken by the abort's token to its
// worker's sleep — takes its sleep back out of the record it abandons, so
// that record's completer sends it nothing. And a token that reaches a
// later join's sleep for an earlier sleep of its worker — a waker's that
// was preempted between its load of the number and its send — does not end
// that sleep as a wake: the joiner re-checks, finds its fork still running,
// and sleeps on, with no round of help, which would count a steal attempt.
// The pool starts each Run with worker 0 alone in the fleet, so the root —
// the joiner — runs there, and grows it to two for a thief.
func TestRecycleJoinToken(t *testing.T) {
	p := New(Config{Workers: 1, MaxWorkers: 2})
	w0 := p.workers[0]
	one := func(*Worker) int { return 1 }
	// blockedJoin forks a Join2 half that spins, stolen, until the joiner
	// sleeps in the half's Future, then runs during and returns 7.
	blockedJoin := func(w *Worker, during func(f *Future[int])) int {
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
			spinUntil(t, "the joiner to sleep in the fork's word", func() bool { return f.ch.p.Load() == &w0.sleep.join })
			during(f)
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
		blockedJoin(w, func(f *Future[int]) {
			cancel()
			spinUntil(t, "the joiner to unwind", unwound.Load)
			if f.ch.p.Load() != nil {
				t.Error("the unwound joiner left its sleep in the record it abandoned")
			}
		})
		t.Error("the join returned from an aborted Run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}

	if err := p.Resize(1); err != nil {
		t.Fatalf("Resize(1): %v", err)
	}
	got := 0
	runWithin(t, p, func(w *Worker) {
		got = blockedJoin(w, func(*Future[int]) {
			attempts := w0.stealAttempts.Load()
			w0.sleep.wake(w0.sleep.n.Load() - 1)
			spinUntil(t, "the joiner to take the stale token", func() bool { return len(w0.sleep.ch) == 0 })
			time.Sleep(10 * time.Millisecond)
			if n := w0.stealAttempts.Load() - attempts; n != 0 {
				t.Errorf("a token for an earlier sleep ended the join's sleep as a wake: %d steal attempts before its fork completed", n)
			}
		})
	})
	if got != 7 {
		t.Fatalf("the join returned %d, want 7", got)
	}
}

// The same for a blocked Group.Wait, which sleeps on its worker's token as
// a join does: a waiter unwound by an abort takes its worker back out of
// the slot of the record it abandons, and a token for an earlier sleep of
// its worker does not end the Wait's sleep as a wake — no round of help,
// which would count a steal attempt. The root, the waiter, runs on worker
// 0, and a grow to two brings the thief that runs the member.
func TestRecycleGroupWaitToken(t *testing.T) {
	p := New(Config{Workers: 1, MaxWorkers: 2})
	w0 := p.workers[0]
	// blockedWait spawns a member that is stolen, and spins until the
	// root's Wait has put w0 in the group's slot, then runs during.
	blockedWait := func(w *Worker, during func(g *Group)) {
		if w != w0 {
			t.Errorf("the root runs on worker %d", w.ID())
			return
		}
		if err := p.Resize(2); err != nil {
			t.Errorf("Resize(2): %v", err)
			return
		}
		var g Group
		var started atomic.Bool
		g.Spawn(w, func(*Worker) {
			started.Store(true)
			spinUntil(t, "the waiter to sleep in the group's slot", func() bool { return g.rec.sleeper.Load() == w0 })
			during(&g)
		})
		spinUntil(t, "the member to be stolen", started.Load)
		g.Wait(w)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var unwound atomic.Bool
	err := p.RunContext(ctx, func(w *Worker) {
		defer unwound.Store(true)
		blockedWait(w, func(g *Group) {
			cancel()
			spinUntil(t, "the waiter to unwind", unwound.Load)
			if g.rec.sleeper.Load() != nil {
				t.Error("the unwound waiter left its worker in the slot of the record it abandoned")
			}
		})
		t.Error("the Wait returned from an aborted Run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}

	if err := p.Resize(1); err != nil {
		t.Fatalf("Resize(1): %v", err)
	}
	runWithin(t, p, func(w *Worker) {
		blockedWait(w, func(*Group) {
			attempts := w0.stealAttempts.Load()
			w0.sleep.wake(w0.sleep.n.Load() - 1)
			spinUntil(t, "the waiter to take the stale token", func() bool { return len(w0.sleep.ch) == 0 })
			time.Sleep(10 * time.Millisecond)
			if n := w0.stealAttempts.Load() - attempts; n != 0 {
				t.Errorf("a token for an earlier sleep ended the Wait's sleep as a wake: %d steal attempts before its member returned", n)
			}
		})
	})
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
			t.Errorf("the spawner lists %d spawned tasks' records, having run none", n)
		}
	})
}

// Two Groups on two workers, over many generations, with their records
// moving between the workers' lists: each generation a Join2 whose fork is
// stolen opens one group on the thief — its first Spawn takes the thief's
// record — and the other here, and a second Join2 waits for both, the
// group opened on the thief from here. The Wait that ends a generation
// lists its record where it ran, so the next group opened on that worker
// may take a record the other group used, possibly while a done of the
// earlier generation is still on its way to the slot. Members spawn a
// child into their own group from wherever they run, and in every third
// generation one member stays until its waiter has blocked. Every Wait
// returns with its exact member count.
func TestRecycleGroupRecords(t *testing.T) {
	gens := 300
	if testing.Short() {
		gens = 100
	}
	const members = 3 // each spawns one child: 6 a generation
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 2})
		var groups [2]Group
		var counts [2]atomic.Int32
		var blocked atomic.Int32
		moves, shared := 0, 0
		open := func(c *Worker, x, gen int) {
			g := &groups[x]
			for i := 0; i < members; i++ {
				g.Spawn(c, func(m *Worker) {
					g.Spawn(m, func(*Worker) { counts[x].Add(1) })
					if i == 0 && gen%3 == 0 {
						deadline := time.Now().Add(2 * time.Millisecond)
						for g.rec.sleeper.Load() == nil && time.Now().Before(deadline) {
							runtime.Gosched()
						}
						if g.rec.sleeper.Load() != nil {
							blocked.Add(1)
						}
					}
					counts[x].Add(1)
				})
			}
		}
		wait := func(c *Worker, x, gen int) int {
			groups[x].Wait(c)
			if got := counts[x].Swap(0); got != 2*members {
				t.Errorf("generation %d: group %d's Wait returned with %d of %d members done", gen, x, got, 2*members)
			}
			return c.ID()
		}
		used := map[*groupRec]int{}
		// A host that runs one worker for long stretches lets that worker
		// run a group's members and wait for them itself, so no waiter
		// blocks: a loaded host saw none in 300 generations. Run on, up to
		// ten times as many, until one has.
		ran := 0
		p.Run(func(w *Worker) {
			for gen := 0; gen < gens || blocked.Load() == 0 && gen < 10*gens; gen++ {
				ran++
				away := gen % 2 // the group opened on the thief
				var started atomic.Bool
				thief, _ := Join2(w, func(c *Worker) int {
					started.Store(true)
					open(c, away, gen)
					return c.ID()
				}, func(c *Worker) int {
					spinUntil(t, "the fork to be stolen", started.Load)
					open(c, 1-away, gen)
					return 0
				})
				for x := range groups {
					if last, ok := used[groups[x].rec]; ok && last != x {
						shared++
					}
					used[groups[x].rec] = x
				}
				_, waiter := Join2(w,
					func(c *Worker) int { return wait(c, 1-away, gen) },
					func(c *Worker) int { return wait(c, away, gen) })
				if thief != waiter {
					moves++
				}
			}
		})
		if moves < ran || shared == 0 || blocked.Load() == 0 {
			t.Errorf("over %d generations: %d records moved between workers, %d taken by the other group, %d waiters seen blocked; want one move a generation, and some of each",
				ran, moves, shared, blocked.Load())
		}
		t.Logf("%d generations: %d records taken by the other group, %d waiters seen blocked", ran, shared, blocked.Load())
		checkFreeLists(t, p, listed[int])
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

// Handles come a chunk at a time from the run records (nextHandle), and a
// record carries its chunk from one submission to the next: four
// submitters make three chunks' worth of submissions each — completed,
// panicking with their id, cancelled while their root runs — and keep every
// Handle. Each is a Handle no other submission had, and each reports its
// own outcome then and after every later chunk; a panicking submission's
// Handle from the first chunk still returns its own PanicError at the end.
func TestRecycleHandleChunk(t *testing.T) {
	const submitters, subs = 4, 3 * handleChunk
	const (
		completes = iota
		panics
		cancelled
		kinds
	)
	p := New(Config{Workers: 2})
	stop := startServing(t, p)
	own := func(kind int, id int64, err error) bool {
		switch kind {
		case completes:
			return err == nil
		case panics:
			return err == PanicError{Value: id}
		}
		return err == context.Canceled
	}
	handles := make([][subs]*Handle, submitters)
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range subs {
				id, kind := int64(g*subs+i), i%kinds
				ctx, cancel := context.WithCancel(context.Background())
				h, err := p.SubmitContext(ctx, func(w *Worker) {
					switch kind {
					case panics:
						panic(id)
					case cancelled:
						cancel()
						for w.currentRun().state.Load() == runLive {
							runtime.Gosched()
						}
					}
				})
				if err != nil {
					cancel()
					t.Errorf("submission %d: SubmitContext: %v", id, err)
					return
				}
				if err := h.Wait(); !own(kind, id, err) {
					t.Errorf("submission %d of kind %d: Wait = %v", id, kind, err)
				}
				cancel()
				handles[g][i] = h
			}
		}()
	}
	wg.Wait()
	seen := map[*Handle]bool{}
	for g := range submitters {
		for i, h := range handles[g] {
			if h == nil {
				continue // its submitter failed already
			}
			if seen[h] {
				t.Errorf("submission %d got a Handle another submission had", g*subs+i)
			}
			seen[h] = true
			if id, kind := int64(g*subs+i), i%kinds; !own(kind, id, h.Wait()) || !own(kind, id, h.Err()) {
				t.Errorf("submission %d of kind %d: after every chunk, Wait = %v and Err = %v", id, kind, h.Wait(), h.Err())
			}
		}
		if h := handles[g][panics]; h != nil && h.Wait() != (PanicError{Value: int64(g*subs + panics)}) {
			t.Errorf("the first chunk's panicking submission of submitter %d reports %v", g, h.Wait())
		}
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// A submission that ends on the user's data leaves none of it on its run
// record: the last let clears the end record and drops the rest of the
// record's Handle chunk, so the record's later submissions, whose Handles
// would come from that chunk, do not keep the outcome alive. Once its
// Handle is dropped, the panic value is garbage within a collection or two
// of the record's release, though the test keeps the record.
func TestRecycleRunDropsPanicValue(t *testing.T) {
	p := New(Config{Workers: 1})
	stop := startServing(t, p)
	collected := make(chan struct{})
	rec := submitPanic(t, p, collected)
	waitFor(t, 10*time.Second, "the record's last holder to let go", func() bool { return rec.holds.Load() == 0 })
	// The last holder clears the record just after its decrement, so a
	// collection may yet find the value reachable: allow a few.
	gone := func() bool {
		select {
		case <-collected:
			return true
		case <-time.After(100 * time.Millisecond):
			return false
		}
	}
	const most = 4
	gcs := 0
	for ; gcs < most; gcs++ {
		runtime.GC()
		if gone() {
			break
		}
	}
	if gcs == most {
		t.Errorf("a dropped Handle's panic value outlived %d collections", most)
	}
	runtime.KeepAlive(rec)
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// submitPanic makes a submission that panics with a value whose finalizer
// closes collected, checks its outcome, and returns its run record; the
// value and the Handle are dropped when it returns.
//
//go:noinline
func submitPanic(t *testing.T, p *Pool, collected chan struct{}) *run {
	type payload struct{ b [64]byte }
	v := new(payload)
	runtime.SetFinalizer(v, func(*payload) { close(collected) })
	var rec *run
	h, err := p.Submit(func(w *Worker) {
		rec = w.currentRun()
		panic(v)
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := h.Wait(); err != (PanicError{Value: v}) {
		t.Fatalf("Wait = %v, want the submission's PanicError", err)
	}
	return rec
}

// Recycled run records carry every kind of submission end across each
// other: completed, cancelled while its root runs, panicked with its own
// id, rejected by a full injector, and rejected by a Drain that closes the
// first of two sessions — or, pushed as that session stops, aborted by
// their own Submit. Each Handle must report its own submission's fate — a
// record reused before a holder was done with it would hand one
// submission's outcome, abort or completion to another — TasksRun must
// count exactly the task bodies that ran, Submitted exactly the calls that
// returned a Handle, and SubmitsRejected every ErrOverloaded and no more
// than the ErrDraining returns besides.
func TestRecycleRunIsolation(t *testing.T) {
	const submitters, subs = 4, 500
	p := New(Config{Workers: 2, InjectorCapacity: 2})
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
	var ran, next, done, stopped, handles, overloaded, draining atomic.Int64
	// task counts a task body (Join2's second function runs inline in its
	// caller's task).
	task := func(*Worker) { ran.Add(1) }
	// submit makes one submission of kind id%4 and checks its fate, trying
	// again while admission is closed or the injector is full.
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
			switch {
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			case errors.Is(err, ErrDraining):
				draining.Add(1)
			}
			if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDraining) || errors.Is(err, ErrNotServing) {
				cancel()
				runtime.Gosched()
				continue
			}
			if err != nil {
				cancel()
				t.Errorf("submission %d: SubmitContext: %v", id, err)
				return
			}
			handles.Add(1)
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
	st := p.Stats()
	if got, want := st.TasksRun, ran.Load(); got != want {
		t.Errorf("TasksRun = %d, but %d task bodies ran", got, want)
	}
	if got, want := st.Submitted, handles.Load(); got != want {
		t.Errorf("Submitted = %d, but %d SubmitContext calls returned a Handle", got, want)
	}
	if got, lo, hi := st.SubmitsRejected, overloaded.Load(), overloaded.Load()+draining.Load(); got < lo || got > hi {
		t.Errorf("SubmitsRejected = %d, want within [%d, %d]: the %d ErrOverloaded returns, and at most the %d ErrDraining ones besides",
			got, lo, hi, lo, hi-lo)
	}
	t.Logf("%d ErrOverloaded and %d ErrDraining returns", overloaded.Load(), draining.Load())
}

// Recycled run records carry every way a submission ends — completed,
// panicked with a comparable value or with a slice, cancelled while its root
// runs, refused by a Drain that races its Submit — and none of it stays in
// the record: each Handle's word ends on its own end record (endRecord), so
// every Err and Wait reports its own submission's outcome, then and after
// its record has served others. Every other session's Drain overtakes a
// Submit held between its gate and its push, so the re-check's refusal is
// in every run, whatever the race of the others. The discards are exact: TasksDropped gains
// the tasks of the panicked submissions that never started, and
// TasksCancelled those of the cancelled ones and the root each refusal of
// the re-check left in the injector.
func TestRecycleRunOutcomes(t *testing.T) {
	const workers, sessions, submitters, subs, kids = 2, 3, 2, 40, 3
	const (
		completes = iota
		panicsComparable
		panicsSlice
		cancelled
		kinds
	)
	type sub struct {
		h       *Handle
		kind    int
		id      int64
		started atomic.Int64 // the tasks of the submission whose bodies ran
	}
	// root spawns kids, then ends as kind says; cancel cancels its context.
	root := func(s *sub, cancel func()) func(*Worker) {
		return func(w *Worker) {
			s.started.Add(1)
			for range kids {
				w.Spawn(func(*Worker) { s.started.Add(1) })
			}
			switch s.kind {
			case panicsComparable:
				panic(s.id)
			case panicsSlice:
				panic([]int64{s.id})
			case cancelled:
				cancel()
				for w.currentRun().state.Load() == runLive {
					runtime.Gosched()
				}
			}
		}
	}
	// own reports whether err is s's outcome; a compare with == would panic
	// on a PanicError that holds a slice.
	own := func(s *sub, err error) bool {
		switch s.kind {
		case completes:
			return err == nil
		case panicsComparable:
			return err == PanicError{Value: s.id}
		case panicsSlice:
			pe, ok := err.(PanicError)
			v, isSlice := pe.Value.([]int64)
			return ok && isSlice && len(v) == 1 && v[0] == s.id
		}
		return err == context.Canceled
	}
	p := New(Config{Workers: workers})
	var (
		mu        sync.Mutex
		all       []*sub // guarded by mu
		next      atomic.Int64
		carcasses int64
	)
	keep := func(s *sub) {
		mu.Lock()
		all = append(all, s)
		mu.Unlock()
	}
	t.Cleanup(fault.Reset)
	for sess := range sessions {
		served := make(chan error, 1)
		go func() { served <- p.Serve(context.Background()) }()
		waitFor(t, 10*time.Second, "the pool to serve", inPhase(p, phaseServing))
		var wg sync.WaitGroup
		for range submitters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range subs {
					s := &sub{kind: i % kinds, id: next.Add(1)}
					ctx, cancel := context.WithCancel(context.Background())
					h, err := p.SubmitContext(ctx, root(s, cancel))
					if err != nil {
						cancel()
						t.Errorf("submission %d: SubmitContext: %v", s.id, err)
						return
					}
					s.h = h
					err = h.Wait()
					cancel()
					if !own(s, err) || !own(s, h.Err()) {
						t.Errorf("submission %d of kind %d: Wait = %v, Err = %v", s.id, s.kind, err, h.Err())
					}
					keep(s)
				}
			}()
		}
		wg.Wait()

		// Every worker held in a root, so nothing pops the injector: a
		// refused Submit left a root there exactly when the injector grew.
		hold := make(chan struct{})
		var holding sync.WaitGroup
		holders := make([]*Handle, workers)
		for i := range holders {
			holding.Add(1)
			h, err := p.Submit(func(*Worker) { holding.Done(); <-hold })
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			holders[i] = h
		}
		holding.Wait()
		drained := make(chan error, 1)
		drain := func() { drained <- p.Drain(context.Background()) }
		if sess%2 == 1 {
			// The Drain closes admission under a Submit suspended past its
			// gate, before its push: the re-check refuses it.
			fault.Enable(fpInjectorBeforePush, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
			queued := p.inject.Len()
			refused := make(chan error, 1)
			go func() {
				_, err := p.SubmitContext(context.Background(), root(&sub{kind: completes, id: next.Add(1)}, nil))
				refused <- err
			}()
			waitFor(t, 10*time.Second, "the Submit to stop before its push", func() bool { return fault.Suspended(fpInjectorBeforePush) == 1 })
			go drain()
			waitFor(t, 10*time.Second, "the Drain to close admission", inPhase(p, phaseDraining))
			fault.Disable(fpInjectorBeforePush)
			if err := <-refused; !errors.Is(err, ErrDraining) {
				t.Errorf("a Submit the Drain overtook returned %v, want ErrDraining", err)
			}
			if p.inject.Len() != queued+1 {
				t.Errorf("the injector holds %d roots after the refused push, want %d", p.inject.Len(), queued+1)
			}
			carcasses++
		} else {
			// The Drain races a Submit loop.
			go drain()
			for {
				queued := p.inject.Len()
				s := &sub{kind: completes, id: next.Add(1)}
				h, err := p.SubmitContext(context.Background(), root(s, nil))
				if errors.Is(err, ErrDraining) {
					if p.inject.Len() == queued+1 {
						carcasses++
					}
					break
				}
				if errors.Is(err, ErrOverloaded) {
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Fatalf("SubmitContext under a Drain: %v", err)
				}
				s.h = h
				keep(s)
				runtime.Gosched() // the Drain's turn
			}
		}
		close(hold)
		if err := <-drained; err != nil {
			t.Errorf("Drain: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("Serve after a Drain returned %v", err)
		}
		for _, h := range holders {
			if err := h.Wait(); err != nil {
				t.Errorf("a holder ended %v", err)
			}
		}
	}

	var dropped, cancels int64
	for _, s := range all {
		err := s.h.Wait()
		if !own(s, err) || !own(s, s.h.Err()) {
			t.Errorf("submission %d of kind %d, its record recycled: Wait = %v, Err = %v", s.id, s.kind, err, s.h.Err())
		}
		unrun := 1 + kids - s.started.Load()
		switch s.kind {
		case completes:
			if unrun != 0 {
				t.Errorf("submission %d completed with %d of its tasks never run", s.id, unrun)
			}
		case cancelled:
			cancels += unrun
		default:
			dropped += unrun
		}
	}
	st := p.Stats()
	if st.TasksDropped != dropped {
		t.Errorf("TasksDropped = %d, want %d: the tasks of panicked submissions that never ran", st.TasksDropped, dropped)
	}
	if want := cancels + carcasses; st.TasksCancelled != want {
		t.Errorf("TasksCancelled = %d, want %d: %d tasks of cancelled submissions that never ran, %d roots of refused ones",
			st.TasksCancelled, want, cancels, carcasses)
	}
	t.Logf("%d submissions; %d dropped, %d cancelled, %d refused roots", len(all), dropped, cancels, carcasses)
}
