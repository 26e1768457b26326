// Elastic fleet: runtime resize with safe-point retirement (DESIGN.md §7,
// "Retire and reactivate").
//
// The paper's whole premise is that the kernel grows and shrinks the
// granted processor set P_A at will while the scheduler stays live and
// loses nothing. The batch pool reproduced the deques and yields of that
// model but ran a fixed fleet; this file makes P itself a runtime value.
// Pool.Resize(n) retargets the fleet to n workers within the pre-allocated
// [1, MaxWorkers] capacity. The paper's processes are a fixed set the kernel
// schedules and deschedules, and so are these: every slot has one goroutine
// for the whole session (startSession), and retired is a sleep.
//
//   - Grow brings a retired slot back with a store of running and then a
//     token for its sleeper (sleepRetired), which re-reads the word. The
//     slot's structures (deque, rng, sleep) exist from New.
//   - Shrink marks suffix workers retiring and wakes them. A retiring
//     worker retires itself at a safe point — the top of its loop, never
//     mid-task: it drains its own deque into the injector (running tasks
//     inline if the injector is full, so nothing is ever lost), publishes
//     workerRetired by CAS, and sleeps in its slot.
//
// The retire/reactivate race is settled on the worker's status word
// (pool.go has its diagram): a Resize that grows the fleet back while a
// worker is still mid-retirement CASes retiring→running, the worker's own
// retiring→retired CAS then fails, and the worker simply resumes its loop.
// Resize blocks on nothing, on either path: CASes, stores and token sends
// that an already-pending token absorbs.
//
// The invariant of the victim range: a non-empty deque is always inside
// [0, fleet). Pool.target is what Resize was asked for; fleet, the thieves'
// bound, is never below it, is raised by a grow before the slot can run,
// and goes down in one place — trimVictims — and only past a slot that is
// retired, its deque drained: a worker marked in the middle of a task keeps
// its deque, and keeps pushing to it, until the task ends, and the paper's
// premise is that a descheduled process's deque stays stealable.
//
// Retired workers are invisible to the rest of the machine: signalWork
// wakes idle workers only and the stall watchdog looks at running workers
// only. A worker that took a wake token and then retires hands the baton on
// with a signalWork of its own. Worker 0 never retires (target >= 1
// always), which keeps the batch API's root target.
package sched

import (
	"fmt"

	"worksteal/internal/fault"
)

// Failpoints in the retire protocol (the kernel-adversary chaos windows).
var (
	fpResizeBeforeRetire = fault.Register("sched.resize.beforeRetire",
		"retire: the worker observed its retiring mark at the loop safe point, deque drain not yet begun")
	fpResizeBeforeHandoff = fault.Register("sched.resize.beforeHandoff",
		"retire: a task popped off the retiring deque, injector handoff not yet offered (the task is invisible here)")
)

// Resize retargets the fleet to n active workers, within [1, MaxWorkers].
// It may be called at any time from any goroutine: mid-Serve (workers
// wake and retire live), mid-Run, or between sessions (the target takes
// effect at the next startSession). Shrinking never discards work — a
// retiring worker first drains its deque back into the injector — and
// never interrupts a running task: workers notice the mark at their loop
// safe point. Resize returns immediately after retargeting; retirement
// completes asynchronously (Stats.WorkersRetired counts completions,
// Stats.ActiveWorkers the momentary fleet).
func (p *Pool) Resize(n int) error {
	if n < 1 || n > len(p.workers) {
		return fmt.Errorf("sched: Resize(%d): fleet size must be in [1, %d] (Config.MaxWorkers)", n, len(p.workers))
	}
	p.resizeMu.Lock()
	defer p.resizeMu.Unlock()
	cur := p.target
	if n == cur {
		return nil
	}
	p.resizes.Add(1)
	p.target = n
	if n < cur {
		// Shrink: mark the suffix retiring. The mark is a CAS from whichever
		// of running and idle the worker is in, retried when the worker moves
		// between the two meanwhile. A worker marked running cannot fall
		// asleep any more; one marked idle is woken so that it notices. The
		// victim range follows only as far as the suffix is retired already.
		for i := n; i < cur; i++ {
			w := p.workers[i]
			s := w.status.Load()
			for (s == workerRunning || s == workerIdle) && !w.status.CompareAndSwap(s, workerRetiring) {
				s = w.status.Load()
			}
			if s == workerIdle {
				w.sleep.wake(0) // no sleep's number: the park re-checks, and reads the mark
			}
		}
		p.trimVictims()
		return nil
	}
	// Grow: widen the victim range first (a steal aimed at a still-empty
	// slot just fails), then bring each suffix slot back.
	if int(p.fleet.Load()) < n {
		p.fleet.Store(int32(n))
	}
	for i := cur; i < n; i++ {
		w := p.workers[i]
		if w.status.CompareAndSwap(workerRetiring, workerRunning) {
			// Still mid-retirement: reactivated in place. The worker's own
			// retiring→retired CAS now fails and it resumes looping.
			continue
		}
		// Retired: the slot's goroutine is asleep (sleepRetired), or on its
		// way there. The store comes first: the sleeper re-reads the word
		// when the token wakes it, and one that read retired would sleep on
		// (status_model_test.go sends the token first and finds that).
		w.status.Store(workerRunning)
		w.sleep.wake(0)
	}
	return nil
}

// trimVictims lowers the victim range past every retired slot above the
// target: the one place fleet goes down. The caller holds resizeMu — a
// shrink, or the worker that has just retired (retire) — so no grow can
// store running into a slot between the load that found it retired and the
// store that puts it out of the thieves' reach.
func (p *Pool) trimVictims() {
	n := int(p.fleet.Load())
	for n > p.target && p.workers[n-1].status.Load() == workerRetired {
		n--
	}
	p.fleet.Store(int32(n))
}

// retire is the shrink safe point, entered from the worker loop when the
// status word reads retiring. The worker re-publishes every task its deque
// still holds through the injector so the remaining fleet picks the work
// up; a full injector falls back to executing the task inline right here,
// so shrinking can never lose or drop a submission's task. Whether
// retirement completed or a concurrent grow reactivated the worker, the
// loop reads off the status word next.
//
//abp:owner the retiring worker's goroutine is still its deque's only owner
func (w *Worker) retire() {
	p := w.pool
	fault.Point(fpResizeBeforeRetire)
	for {
		t := w.dq.PopBottom()
		if t == nil {
			break
		}
		fault.Point(fpResizeBeforeHandoff)
		if w.republish(t) {
			continue
		}
		// Injector full: run the task here instead of losing it. The
		// task may Spawn (refilling this deque), which is why the drain is
		// a loop and not a single sweep.
		w.execOrDrop(t, false)
	}
	if !w.status.CompareAndSwap(workerRetiring, workerRetired) {
		// A grow reactivated this worker mid-retirement.
		return
	}
	p.retiredN.Add(1)
	p.resizeMu.Lock()
	p.trimVictims()
	p.resizeMu.Unlock()
	// Hand the wake baton on. This worker may have consumed (or caused a
	// producer's signalWork to skip past) a wake token meant for real work
	// — its own re-published tasks included — so one extra signal here
	// keeps the no-lost-wakeup invariant; a spurious signal is harmless.
	p.signalWork()
}

// sleepRetired is where a retired slot's goroutine sleeps until a grow's
// token or the session's end's, each sent after its store, makes it look;
// no one sends it its number. It takes no look first: a token sent before
// it began is in the channel still, or kept out by one that is.
func (w *Worker) sleepRetired() {
	w.sleep.wait(w.sleep.begin(), nil, func() bool {
		return w.pool.phase.Load() == phaseStopping || w.status.Load() != workerRetired
	})
}

// republish hands one drained task back through the injector (offer). The
// task leaves this worker for good, so it goes out in the scope a thief
// would run it in (split): whoever polls it counts on a word of its own,
// like the poller of a root. Reports whether the injector accepted the
// task; a refused one runs here in the scope it carries, and the child
// split made for it is the collector's.
func (w *Worker) republish(t *Task) bool {
	if s := w.split(t.scope); s != t.scope {
		t = &Task{body: t.body, scope: s}
	}
	return w.pool.offer(t)
}
