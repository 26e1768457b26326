//go:build abpsync

package sched

import (
	"strconv"
	"testing"

	"worksteal/internal/atomicx"
)

const countingBuild = true

// syncOps reads atomicx's counters: loads, stores and RMWs.
func syncOps() [3]int64 {
	c := atomicx.SyncCounts()
	return [3]int64{c.Loads, c.Stores, c.RMWs}
}

// A whole run on two workers, whose steals and parks are the schedule's:
// Join2 fib(22)'s fences, idle rounds left out, stay within the table's
// same run on one worker, its empty Run for the second worker's session,
// two park-and-wake rounds a steal or a park (the thief's and the
// victim's, whose join may block), and a redundant signal's surplus over a
// Spawn for every signal that woke nobody: each public spawn made while a
// woken worker is still on its way moves the wake cursor, the session's
// count of signals (Pool.wakeRR), which the wake itself is one of. With
// four test processes on two CPUs, 4 runs in 240 signalled 240 times for
// their one wake: 4 219 fences, over a bound of 4 086 that had no term for
// them. runMu's Lock and Unlock are uncounted.
func TestSyncOpsPerRun(t *testing.T) {
	_, golden := readCosts(t)
	fences := func(key string) int64 {
		n, err := strconv.ParseInt(append(golden[key], "")[5], 10, 64)
		if err != nil {
			t.Fatalf("%s: row %q has no fences", costsGolden, key)
		}
		return n
	}
	alone, run := fences("`Run` of `Join2` fib(22) on 1"), fences("an empty `Run` on 1")
	parkWake := fences("park+wake: a `Spawn` the parked worker steals on 2")
	redundant := fences("a `Spawn` signalled to a worker woken already on 2") - fences("`Spawn` on 1")
	var steals, parks, wakes int64
	want := fibSerial(22)
	row := costRow{op: "Join2 fib(22)", workers: 2, at: atCaller, procs: 2, steals: -1, idle: true,
		prep: func(e *costEnv) { s := e.p.Stats(); steals, parks, wakes = s.Steals, s.Parks, s.Wakes },
		do: func(e *costEnv) {
			e.p.Run(func(w *Worker) {
				if got := fibPar(w, 22, 2); got != want {
					t.Errorf("fib(22) = %d, want %d", got, want)
				}
			})
		}}
	for range 5 {
		e := &costEnv{t: t}
		c := row.measure(e) // one window, after prep's snapshot
		s := e.p.Stats()
		steals, parks, wakes = s.Steals-steals, s.Parks-parks, s.Wakes-wakes
		signals := int64(e.p.wakeRR.Load()) // the session's: startSession zeroes it
		got := c[colStores] + c[colRMWs]
		if bound := alone + run + 2*parkWake*(steals+parks) + redundant*max(signals-wakes, 0); got > bound {
			t.Errorf("Join2 fib(22) on two workers: %d stores+RMWs with %d steals, %d parks and %d signals for %d wakes, want at most %d", got, steals, parks, signals, wakes, bound)
		}
	}
}
