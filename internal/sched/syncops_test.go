//go:build abpsync

package sched

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/atomicx"
)

// The fences of the fork paths, counted exactly: under the abpsync tag
// atomicx counts every load, store and read-modify-write the engine issues
// (go test -tags abpsync ./internal/sched/). On amd64 every store and every
// read-modify-write is a fence, so stores+RMWs is what a path pays in
// synchronization, and a count, unlike a time, does not move with the host.
//
// On one worker: an engine fork its joiner pops back — Join2's, a Reduce
// split's — is private (lazy.go) and makes none; before the region it made
// four (the scope's Add, pushBottom's slot and bot stores, popBottom's bot
// store). A Spawn is its count, its slot and its bot; a Group.Spawn and the
// Wait that runs the member, and a Submit and the Wait on its Handle with
// the worker's whole wake-run-park round, are what they were before the
// region too, but for the one RMW that numbers a park (Worker.sleep).
//
// A session's own paths: an empty Run on one worker, from entry to return,
// less the worker's idle rounds (below); and one park-and-wake round on two
// workers — a spawn that wakes the parked one, which steals the task, runs
// it and parks again. Each reads one more than before the session's end
// moved to token channels: the Run resets the pool's Handle, and the park
// numbers its sleep. A submission's end costs two more than sync.Once's,
// which this count never saw, so the Run and Submit+Wait rows each read 2
// above it (25 and 43 before): newRun's reset of the run's end word, a
// store, and finish's claim of it, an RMW. Neither row counts the Lock and
// Unlock of runMu in register and unregister: a sync.Mutex is outside
// atomicx.
func TestSyncOpsPerFork(t *testing.T) {
	want := map[string]int64{"Join2": 0, "Reduce": 0, "Spawn": 3, "Group.Spawn+Wait": 10, "Submit+Wait": 45, "Run": 27, "park+wake": 45}
	got := map[string]atomicx.SyncOps{}
	measure := func(name string, f func()) {
		c := atomicx.SyncCounts()
		f()
		got[name] = atomicx.SyncCounts().Sub(c)
	}
	one := func(*Worker) int { return 1 }
	ident := func(i int) int { return i }
	add := func(a, b int) int { return a + b }
	New(Config{Workers: 1}).Run(func(w *Worker) {
		Join2(w, one, func(c *Worker) int {
			// The outer fork holds the public part, so the region takes
			// the forks below.
			measure("Join2", func() { Join2(c, one, one) })
			measure("Reduce", func() { Reduce(c, 0, 2, 1, ident, add) })
			measure("Group.Spawn+Wait", func() {
				g := NewGroup()
				g.Spawn(c, func(*Worker) {})
				g.Wait(c)
			})
			measure("Spawn", func() { c.Spawn(func(*Worker) {}) })
			return 1
		})
	})

	// The worker of an empty Run goes on with idle rounds — a count of
	// progress and one of yields each — until the controller stores
	// stopping, and how many it makes depends on when the controller gets
	// the processor: the row leaves them out.
	empty := New(Config{Workers: 1})
	empty.Run(func(*Worker) {})
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		yields := empty.Stats().Yields
		measure("Run", func() { empty.Run(func(*Worker) {}) })
		c := got["Run"]
		c.RMWs -= 2 * (empty.Stats().Yields - yields)
		got["Run"] = c
	}()

	// The root polls with loads only, and the other worker's deque is its
	// only victim.
	pair := New(Config{Workers: 2})
	pair.Run(func(w *Worker) {
		other := pair.workers[1-w.id]
		isParked := func(n int64) func() bool {
			return func() bool { return other.parks.Load() >= n && other.status.Load() == workerIdle }
		}
		spinUntil(t, "the other worker to park", isParked(1))
		time.Sleep(10 * time.Millisecond) // past its re-check, asleep
		parks := other.parks.Load()
		var ran atomic.Bool
		measure("park+wake", func() {
			w.Spawn(func(*Worker) { ran.Store(true) })
			spinUntil(t, "the woken worker to run the task and park again", func() bool { return ran.Load() && isParked(parks+1)() })
			time.Sleep(10 * time.Millisecond)
		})
	})

	// Submit and Wait on a parked one-worker pool, through to the worker's
	// next park: the polls below only load.
	p := New(Config{Workers: 1})
	stop := startServing(t, p)
	parked := func(n int64) func() bool {
		return func() bool { return p.Stats().Parks >= n && p.workers[0].status.Load() == workerIdle }
	}
	waitFor(t, 10*time.Second, "the worker to park", parked(1))
	time.Sleep(10 * time.Millisecond) // past the park's re-check, asleep in its select
	measure("Submit+Wait", func() {
		h, err := p.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "the submission", h.done.isDone)
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "the worker to park again", parked(2))
		time.Sleep(10 * time.Millisecond)
	})
	stop()

	for name, n := range want {
		c := got[name]
		t.Logf("%s: %d loads, %d stores, %d RMWs", name, c.Loads, c.Stores, c.RMWs)
		if c.Fences() != n {
			t.Errorf("%s: %d stores+RMWs, want %d", name, c.Fences(), n)
		}
	}
}

// The fences of whole runs. On one worker, exact: a fork-join recursion —
// Join2's fib(25), every fork popped back — and a 512-leaf Reduce, from the
// Run's entry to its return, less the worker's idle rounds, as the Run row
// of TestSyncOpsPerFork leaves them out. What is left is that row and the
// flushes of the counts of the popped-back calls (Future.call) and of the
// tasks. On two workers a run pays for its steals and parks on top: fib(22)'s
// fences, its idle rounds left out, stay within the same run's on one
// worker, the Run row again for the second worker's session, and two
// park+wake rounds a steal or a park — the thief's round and the victim's,
// whose join of the stolen fork may block. runMu's Lock and Unlock in
// register and unregister are outside the count here too.
func TestSyncOpsPerRun(t *testing.T) {
	const run, parkWake = 27, 45 // TestSyncOpsPerFork's rows
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// fences returns the stores and RMWs of one Run of root on p, less the
	// two RMWs of each idle round, and the steals and parks it made.
	fences := func(p *Pool, root func(*Worker)) (n, steals, parks int64) {
		before := p.Stats()
		c := atomicx.SyncCounts()
		p.Run(root)
		ops := atomicx.SyncCounts().Sub(c)
		after := p.Stats()
		idle := after.Yields - before.Yields
		t.Logf("%d loads, %d stores, %d RMWs, %d idle rounds", ops.Loads, ops.Stores, ops.RMWs, idle)
		return ops.Fences() - 2*idle, after.Steals - before.Steals, after.Parks - before.Parks
	}
	fib := func(n int) func(*Worker) {
		return func(w *Worker) {
			if got := fibPar(w, n, 2); got != fibSerial(n) {
				panic("fib computed wrong")
			}
		}
	}
	reduce := func(w *Worker) {
		if got := Reduce(w, 0, 512, 1, func(i int) int { return i }, func(a, b int) int { return a + b }); got != 512*511/2 {
			panic("Reduce computed wrong")
		}
	}
	one := New(Config{Workers: 1})
	one.Run(func(*Worker) {})
	for _, row := range []struct {
		name string
		root func(*Worker)
		want int64
	}{{"Join2 fib(25)", fib(25), 16128}, {"Reduce of 512 leaves", reduce, 207}} {
		if got, _, _ := fences(one, row.root); got != row.want {
			t.Errorf("%s on one worker: %d stores+RMWs, want %d", row.name, got, row.want)
		}
	}
	alone, _, _ := fences(one, fib(22))

	runtime.GOMAXPROCS(2)
	pair := New(Config{Workers: 2})
	pair.Run(func(*Worker) {})
	for range 5 {
		got, steals, parks := fences(pair, fib(22))
		t.Logf("Join2 fib(22): %d stores+RMWs on two workers, %d steals, %d parks; %d on one", got, steals, parks, alone)
		if bound := alone + run + 2*parkWake*(steals+parks); got > bound {
			t.Errorf("Join2 fib(22) on two workers: %d stores+RMWs with %d steals and %d parks, want at most %d", got, steals, parks, bound)
		}
	}
}
