// Worker lifecycle: parking for idle workers, and the one sleep every wait
// of a worker is.
//
// The paper's Figure 3 loop spins forever — pop, yield, steal — because in
// its model the kernel already charges a spinning thief's steal attempts
// against the schedule's bound; burning the processor is the analysis's
// problem, not the program's. On a live machine it is very much the
// program's problem: every idle worker pins a full core at 100%. This file
// adds the standard remedy, the one Go's own runtime (findRunnable ->
// stopm/wakep) and ForkJoinPool use atop the same ABP-style deques: after
// ParkThreshold consecutive failed steal attempts a worker parks. Spawn and
// Submit wake one idle worker whenever they make new work available.
//
// A park is one sleep of the worker's sleep (DESIGN.md §7, "Sleep and
// wake"), published in the status word, and it is the consumer half of a
// Dekker handshake over Go's sequentially consistent atomics: a producer
// publishes work (PushBottom's store, or the injector's reservation CAS)
// and then reads the idle count and the status words; a parker publishes
// its status and the count and then re-scans the injector and every deque.
// Whichever order the two interleave in, one side observes the other, so
// work published while a worker goes to sleep either earns it a wake token
// or is seen by its re-check. status_model_test.go explores the protocol,
// Resize's edges of the word and the session's end included.
//
// The paper's yield discipline is preserved where it matters: in the hot
// phase (below the threshold) a thief still calls runtime.Gosched between
// steal attempts, exactly Figure 3's yield-then-steal round. Parking only
// ever happens when the injector and every deque are observably empty,
// i.e. when the steal the paper would have made was guaranteed to fail
// anyway.
package sched

import (
	"math/rand/v2"
	"runtime"

	"worksteal/internal/atomicx"
	"worksteal/internal/fault"
)

// injectorPollPeriod is how often (in loop iterations) a busy worker
// checks the injector ahead of its local deque, bounding how long a deep
// local backlog can starve external submissions — the Go runtime's
// schedule()-checks-the-global-queue-every-61-ticks idiom, prime for the
// same reason (avoids resonance with task-tree shapes).
const injectorPollPeriod = 61

// loop is the Figure 3 scheduling loop — pop the bottom of the local
// deque; when empty, yield and steal from the top of a random victim —
// extended with the injector polls that feed external submissions in (one
// ahead of the yield, when the deque is empty) and wrapped in the parking
// lifecycle described above.
//
//abp:owner the worker goroutine is its deque's single owner for the run
func (w *Worker) loop() {
	defer w.pool.wg.Done()
	defer w.recoverLoopPanic()
	fault.Point(fpLoopEnter)
	fails, ticks, parked := 0, 0, false
	for w.pool.phase.Load() != phaseStopping {
		// The shrink safe point (resize.go): a worker marked retiring
		// re-publishes its deque through the injector and retires, and a
		// retired one sleeps in its slot until a grow wakes it; either way
		// the loop reads the word again, which is also how it learns that a
		// concurrent grow reactivated it mid-retirement. A marked worker that
		// gets as far as park fails its entry CAS and comes back here.
		switch w.status.Load() {
		case workerRetiring:
			w.retire()
			continue
		case workerRetired:
			w.sleepRetired()
			continue
		}
		ticks++
		// stolen travels with t to exec: true only for a task taken from
		// another worker's deque. What the injector hands over — a root, or
		// a task republish re-scoped — runs in the scope it carries.
		var t *Task
		stolen := false
		if ticks%injectorPollPeriod == 0 {
			// Fairness poll: with a non-empty local deque the injector
			// would otherwise only be drained by idle workers.
			t = w.pool.inject.TryPop()
		}
		if t == nil {
			t = w.dq.PopBottom()
		}
		if t == nil {
			// Idle: drain submissions ahead of stealing — an injected root
			// is the oldest work in the system, and taking it costs no
			// yield — then Figure 3's yield and one victim.
			t = w.pool.inject.TryPop()
		}
		if t == nil {
			w.yields.Add(1)
			runtime.Gosched()
			fault.Point(fpLoopBeforeSteal)
			t, stolen = w.stealOnce(), true
		}
		if t != nil {
			if fails = 0; parked && w.anyVisibleWork() {
				// Back from a park, pass a wake on while work is left: each
				// signal of a burst may have found this worker idle.
				w.pool.signalWork()
			}
			parked = false
			w.execOrDrop(t, stolen)
			continue
		}
		// Hot rounds, then a park; the loop top acts on a retire mark that
		// refused one.
		if fails++; fails >= w.pool.cfg.ParkThreshold && w.park() {
			fails, parked = 0, true
		}
	}
}

// recoverLoopPanic is the recover-and-terminate path for a panic raised by
// the loop machinery itself — outside exec's per-task recover, e.g. an
// injected fault.Point panic between tasks. Without it such a panic would
// escape the worker goroutine and crash the process (and, were it somehow
// swallowed, strand scope counters above zero and wedge every waiter).
// Instead it is treated as an engine failure: the session stops with the
// panic value, so its controller — Run's select or Serve's — brings it down
// (endSession): every in-flight submission aborts with the value (waking
// parked workers, blocked Joins, and Handle waiters), and the controller
// re-panics with it after the workers drain.
func (w *Worker) recoverLoopPanic() {
	if r := recover(); r != nil {
		w.pool.engineFail(r)
	}
}

// park blocks the worker until signalled: number the sleep, publish the
// idle status and count, re-check for work, and only then sleep. It reports
// whether the worker published its status, which signals may have found,
// and took it back. The handshake directive makes abplint verify that
// ordering: the status CAS must dominate the anyVisibleWork re-scan, and
// every access to the word must be atomic. Both CASes fail only against a
// retire mark, which the loop top acts on. A token not the sleep's own ends
// it only if the re-check finds the session's end, a retire mark or work.
//
//abp:handshake store=status load=anyVisibleWork
func (w *Worker) park() bool {
	p := w.pool
	n := w.sleep.begin()
	if !w.status.CompareAndSwap(workerRunning, workerIdle) {
		return false
	}
	p.idle.Add(1)
	fault.Point(fpParkBeforeRecheck)
	if p.phase.Load() != phaseStopping && !w.anyVisibleWork() {
		w.parks.Add(1)
		// The chaos window: status and count are published and the re-check
		// passed, but the worker is not yet blocked — a suspension here
		// models preemption between those instructions. A submission
		// arriving now must find the worker signallable, and a shutdown
		// must still wake it.
		fault.Point(fpParkBeforeSleep)
		if w.sleep.wait(n, nil, func() bool {
			return p.phase.Load() == phaseStopping || w.status.Load() != workerIdle || w.anyVisibleWork()
		}) {
			w.wakes.Add(1)
		}
	}
	back := w.status.CompareAndSwap(workerIdle, workerRunning)
	p.idle.Add(-1)
	return back
}

// signalWork wakes one idle worker, if any. The caller must already have
// made the new work visible (pushed it onto a deque or reserved an injector
// cell); see the Dekker argument in the file comment.
//
// The scan starts at a random position rather than index zero: a fixed
// start always wakes the lowest-indexed parked worker, so under a trickle
// of submissions worker 0 absorbs every wake while the rest of the fleet
// sleeps cold (stale deque affinity, cold stacks). The runtime's
// per-thread random source spreads wakes with no shared word to write; no
// fairness guarantee is needed beyond breaking the fixed bias.
//
//abp:nonblocking
func (p *Pool) signalWork() {
	if p.idle.Load() == 0 {
		return
	}
	n := len(p.workers)
	start := rand.IntN(n)
	for i := 0; i < n; i++ {
		// A retiring worker reads retiring, never idle, so no token goes to
		// a wake that would end in retirement rather than work; one marked
		// after its token was sent passes the baton on (retire, resize.go).
		if p.workers[(start+i)%n].wakeIf(1 << workerIdle) {
			return
		}
	}
}

// wakeIf wakes w's sleep if w's status is in the set st (a bit per
// status) and reports whether it did: signalWork's set is idle, a run's
// abort's the two a task runs under, running and retiring. The number is
// loaded first, so a status read in the set belongs to that sleep or to a
// later one, which the token does not end.
//
//abp:nonblocking
func (w *Worker) wakeIf(st uint32) bool {
	n := w.sleep.n.Load()
	if 1<<w.status.Load()&st == 0 {
		return false
	}
	w.sleep.wake(n)
	return true
}

// sleep is a worker's one way to block, and wake the one way to end it
// (DESIGN.md §7, "Sleep and wake"): park, the retired sleep and a blocked
// join all take a number (begin), publish where their waker looks, re-check
// and wait; a waker loads the number, reads what the sleeper published and
// sends the number it loaded — or 0, no sleep's, to make it look again. A
// sleep ends as a wake only on its own number, and any other token makes
// it re-check, so nothing drains the channel (sleep_model_test.go).
type sleep struct {
	n  atomicx.SCUint32
	ch chan uint32 // capacity one, made by New
	// join is what a join that is its word's one waiter installs in the
	// word (waitToken): this sleep, for finish to wake.
	join waiter
}

// begin takes the number of a new sleep.
func (s *sleep) begin() uint32 { return s.n.Add(1) }

// wait blocks sleep n until a token carrying n arrives, which it reports as
// a wake, or until done, if not nil, is closed, or another token makes
// recheck find a reason to stop sleeping.
func (s *sleep) wait(n uint32, done <-chan struct{}, recheck func() bool) bool {
	for {
		select {
		case t := <-s.ch:
			if t == n {
				return true
			}
		case <-done:
			return false
		}
		if recheck() {
			return false
		}
	}
}

// wake leaves a token carrying n. A send to a full channel is dropped —
// the pending token makes the sleeper look — so it never blocks.
//
//abp:nonblocking
func (s *sleep) wake(n uint32) {
	select {
	case s.ch <- n:
	default:
	}
}
