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
// and what a steal or a park adds. A steal here takes a private fork on
// request, which the table prices whole — a request, an exposure, two
// steals, the thief's wake and park — and the victim's join of it may
// block: one park-and-wake round more. A steal measured 27 to 69 fences,
// median 53, over 300 windows on two CPUs. A signal that wakes nobody
// costs what a Spawn on one worker does, which the first term holds: it
// writes no word of its own (signalWork). runMu's Lock and Unlock are
// uncounted.
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
	perSteal := fences("a private `Join2` fork stolen on request on 2") + fences("park+wake: a `Spawn` the parked worker steals on 2")
	var steals, parks int64
	want := fibSerial(22)
	row := costRow{op: "Join2 fib(22)", workers: 2, at: atCaller, procs: 2, steals: -1, idle: true,
		prep: func(e *costEnv) { s := e.p.Stats(); steals, parks = s.Steals, s.Parks },
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
		steals, parks = s.Steals-steals, s.Parks-parks
		got := c[colStores] + c[colRMWs]
		if bound := alone + run + perSteal*(steals+parks); got > bound {
			t.Errorf("Join2 fib(22) on two workers: %d stores+RMWs with %d steals and %d parks, want at most %d", got, steals, parks, bound)
		}
	}
}
