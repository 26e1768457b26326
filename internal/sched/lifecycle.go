// Worker lifecycle: parking for idle workers.
//
// The paper's Figure 3 loop spins forever — pop, yield, steal — because in
// its model the kernel already charges a spinning thief's steal attempts
// against the schedule's bound; burning the processor is the analysis's
// problem, not the program's. On a live machine it is very much the
// program's problem: every idle worker pins a full core at 100%. This file
// adds the standard remedy, the one Go's own runtime (findRunnable ->
// stopm/wakep) and ForkJoinPool use atop the same ABP-style deques: after
// ParkThreshold consecutive failed steal attempts a worker parks on a
// per-worker token channel. Spawn and Submit wake one idle worker whenever
// they make new work available.
//
// To park, the worker moves its status word from running to idle (pool.go
// has the word's diagram), counts itself in Pool.idle, re-checks for work,
// and only then blocks, selecting on its wake token and the session's quit
// channel.
//
// Lost-wakeup freedom is the usual Dekker argument over Go's sequentially
// consistent atomics: a producer publishes work (an atomic store inside the
// deque's PushBottom, or the injector's reservation CAS) and then reads the
// idle count and the status words; an idle worker publishes its status and
// the count and then re-scans the injector and every deque. Whichever order
// the two interleave in, one side must observe the other, so work published
// while a worker is going to sleep either earns that worker a wake token or
// is seen by its pre-block re-check. Spurious wake tokens are harmless (the
// worker scans, finds nothing, and goes back to sleep); only lost ones
// would be fatal. status_model_test.go explores the protocol, Resize's
// edges of the word included, and catches the re-check moved ahead of the
// publication.
//
// Termination needs no flag-spinning either: the session teardown
// (Pool.endSession) closes the session's quit channel, waking every
// parked or retired worker at once so the pool shuts down cleanly — the
// stopping phase is only the loop-exit condition, never a spin target. A
// retired worker's sleep (sleepRetired, resize.go) is the second on the same
// two channels, and no part of the handshake: it is nobody's wake target,
// and only the grow that stored running sends its token.
//
// The paper's yield discipline is preserved where it matters: in the hot
// phase (below the threshold) a thief still calls runtime.Gosched between
// steal attempts, exactly Figure 3's yield-then-steal round. Parking only
// ever happens when the injector and every deque are observably empty,
// i.e. when the steal the paper would have made was guaranteed to fail
// anyway.
package sched

import (
	"runtime"

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
// extended with the injector polls that feed external submissions in and
// wrapped in the parking lifecycle described above.
//
//abp:owner the worker goroutine is its deque's single owner for the run
func (w *Worker) loop() {
	defer w.pool.wg.Done()
	defer w.recoverLoopPanic()
	fault.Point(fpLoopEnter)
	fails := 0
	ticks := 0
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
		w.progress.Add(1)
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
			w.yields.Add(1)
			runtime.Gosched()
			fault.Point(fpLoopBeforeSteal)
			// Idle: drain submissions ahead of stealing — an injected root
			// is the oldest work in the system — then try one victim.
			if t = w.pool.inject.TryPop(); t == nil {
				t, stolen = w.stealOnce(), true
			}
		}
		if t != nil {
			fails = 0
			w.execOrDrop(t, stolen)
			continue
		}
		fails++
		if w.idleWait(fails) {
			fails = 0 // woken by a work signal: restart the hot phase
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

// idleWait is an idle worker's lifecycle: hot rounds below ParkThreshold,
// then a park. It reports whether the worker was woken by a work signal (the
// caller restarts the hot phase); a park that ended otherwise — the re-check
// saw work, a retire mark, the session's end — leaves the count where it
// is, so the next failed round parks again.
func (w *Worker) idleWait(fails int) bool {
	return fails >= w.pool.cfg.ParkThreshold && w.park()
}

// park blocks the worker until signalled and reports whether it was woken
// by a work signal. It is the consumer half of the Dekker protocol with
// signalWork: publish the idle status and count, then re-check for work,
// and only then sleep on the wake token. The handshake directive makes
// abplint verify that ordering: the status CAS must dominate the
// anyVisibleWork re-scan, and every access to the word must be atomic. The
// entry CAS fails only against a retire mark: a marked worker does not fall
// asleep, its loop retires it. The exit CAS fails only against one set
// during the sleep, by a Resize that also sent a token: whatever ended the
// select, that sleep ends as a wake does, at the loop top, which acts on
// the mark. An exit CAS that succeeds drops a pending token instead. The
// session quit channel (closed by endSession) bounds every sleep at
// shutdown.
//
//abp:handshake store=status load=anyVisibleWork
func (w *Worker) park() bool {
	p := w.pool
	if !w.status.CompareAndSwap(workerRunning, workerIdle) {
		return false
	}
	p.idle.Add(1)
	woke := false
	if p.phase.Load() != phaseStopping && !w.anyVisibleWork() {
		w.parks.Add(1)
		// The chaos window: status and count are published and the re-check
		// passed, but the worker is not yet blocked — a suspension here
		// models preemption between those instructions. A submission
		// arriving now must find the worker signallable, and a shutdown
		// must still wake it.
		fault.Point(fpParkBeforeSleep)
		select {
		case <-w.parkCh:
			w.wakes.Add(1)
			woke = true
		case <-p.sess.quit: // session shutdown: run ended, Serve stopping, or abort
		}
	}
	if !w.status.CompareAndSwap(workerIdle, workerRunning) {
		woke = true
	} else {
		// A token still in the channel was sent by a signalWork that read
		// this worker idle after it was woken, or while its re-check saw
		// the work, and before the CAS above. The work it stood for is this
		// running worker's to find, and the next park's re-check sees
		// whatever is left of it; left in the channel, the token would end
		// that park at once, for a full set of hot rounds.
		select {
		case <-w.parkCh:
		default:
		}
	}
	p.idle.Add(-1)
	return woke
}

// signalWork wakes one idle worker, if any. The caller must already have
// made the new work visible (pushed it onto a deque or reserved an injector
// cell); see the Dekker argument in the file comment.
//
// The scan starts at a rotating cursor rather than index zero: a fixed
// start always wakes the lowest-indexed parked worker, so under a trickle
// of submissions worker 0 absorbs every wake while the rest of the fleet
// sleeps cold (stale deque affinity, cold stacks). Rotating spreads wakes
// across the fleet; the cursor is a plain consumed Add, with no fairness
// guarantee needed beyond breaking the fixed bias. It wraps: the modulo is
// taken before the conversion, which on a 32-bit int would go negative
// past 2^31 signals.
//
//abp:nonblocking
func (p *Pool) signalWork() {
	if p.idle.Load() == 0 {
		return
	}
	n := len(p.workers)
	start := int((p.wakeRR.Add(1) - 1) % uint32(n))
	for i := 0; i < n; i++ {
		w := p.workers[(start+i)%n]
		// A retiring worker reads retiring, never idle, so no token goes to
		// a wake that would end in retirement rather than work; one marked
		// after its token was sent passes the baton on (retire, resize.go).
		if w.status.Load() == workerIdle {
			w.wake()
			return
		}
	}
}

// wake leaves a token for the worker's sleep — park's or sleepRetired's — to
// end on. The channel has capacity one, so a token sent to a worker with one
// pending is absorbed rather than lost, and the send can never block.
//
//abp:nonblocking
func (w *Worker) wake() {
	select {
	case w.parkCh <- struct{}{}:
	default:
	}
}
