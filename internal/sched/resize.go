// Elastic fleet: runtime resize with safe-point retirement (DESIGN.md §7,
// "Retire and reactivate").
//
// The paper's whole premise is that the kernel grows and shrinks the
// granted processor set P_A at will while the scheduler stays live and
// loses nothing. The batch pool reproduced the deques and yields of that
// model but ran a fixed fleet; this file makes P itself a runtime value.
// Pool.Resize(n) retargets the fleet to n workers within the pre-allocated
// [1, MaxWorkers] capacity:
//
//   - Grow starts worker goroutines for retired slots mid-session. The
//     slot's structures (deque, rng, park channel) already exist from New,
//     so growing is one state store plus a go statement per slot.
//   - Shrink marks suffix workers retiring and wakes them. A retiring
//     worker retires itself at a safe point — the top of its loop, never
//     mid-task: it drains its own deque into the injector (running tasks
//     inline if the injector is full, so nothing is ever lost), then
//     publishes workerRetired by CAS and exits.
//
// The retire/reactivate race is settled on the worker's status word
// (pool.go has its diagram): a Resize that grows the fleet back while a
// worker is still mid-retirement CASes retiring→running, the worker's own
// retiring→retired CAS then fails, and the worker simply resumes its loop —
// no blocking wait anywhere, on either side. Only after a successful
// retiring→retired CAS does Resize start a fresh goroutine for the slot;
// the SC status word orders the dying goroutine's plain-field writes (rng,
// the free lists) before the new goroutine's reads.
//
// Retired workers are invisible to the rest of the machine: signalWork
// wakes idle workers only, victim selection draws only from the active
// prefix [0, fleet), and the stall watchdog looks at running workers only.
// A worker that took a wake token and then retires hands the baton on with
// a signalWork of its own. Worker 0 never retires (fleet >= 1 always),
// which keeps the batch API's root target and the session's WaitGroup
// floor intact.
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
// start and retire live), mid-Run, or between sessions (the target takes
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
	cur := int(p.fleet.Load())
	if n == cur {
		return nil
	}
	p.resizes.Add(1)
	if n < cur {
		// Shrink: mark the suffix retiring before narrowing the victim
		// range. The mark is a CAS from whichever of running and idle the
		// worker is in, retried when the worker moves between the two
		// meanwhile. A worker marked running cannot fall asleep any more; one
		// marked idle is woken so that it notices. The token send is non-
		// blocking (capacity-1 channel): an already-pending token wakes the
		// worker just as well.
		for i := n; i < cur; i++ {
			w := p.workers[i]
			s := w.status.Load()
			for (s == workerRunning || s == workerIdle) && !w.status.CompareAndSwap(s, workerRetiring) {
				s = w.status.Load()
			}
			if s == workerIdle {
				select {
				case w.parkCh <- struct{}{}:
				default:
				}
			}
		}
		p.fleet.Store(int32(n))
		return nil
	}
	// Grow: widen the victim range first (a steal aimed at a still-empty
	// slot just fails), then bring each suffix slot back.
	p.fleet.Store(int32(n))
	for i := cur; i < n; i++ {
		w := p.workers[i]
		if w.status.CompareAndSwap(workerRetiring, workerRunning) {
			// Still mid-retirement: reactivated in place. The live
			// goroutine's own retiring→retired CAS now fails and it resumes
			// looping — no second goroutine, no wait on either side.
			continue
		}
		// Fully retired (or was never started this session): the slot has
		// no goroutine, so hand the slot index to the session's fleet
		// manager to start one. The failed CAS above read the retired status
		// — the edge that orders the dead goroutine's plain-field writes
		// before the new goroutine's reads. The send cannot block
		// indefinitely: the manager receives until quit closes, and a
		// session that has ended — or is ending — drops the grow, which the
		// next startSession makes good from the fleet stored above.
		w.status.Store(workerRunning)
		if s := p.sess; s != nil {
			select {
			case s.grow <- i:
			case <-s.quit:
			}
		}
	}
	return nil
}

// fleetManager is the session goroutine that launches worker loops for
// mid-session grows. It exists so that every `go w.loop()` in the package
// sits inside startSession's fork subtree: the plain fields startSession
// writes (the session record) are ordered before any worker goroutine by
// the lexical fork edges alone, no matter when a grow later starts the
// worker. The manager holds its own WaitGroup slot
// (startSession adds it), so its wg.Add(1) per launch always runs with a
// non-zero counter, never racing endSession's Wait — even for a grow it
// receives after quit closed, whose worker reads stopping and leaves.
func (p *Pool) fleetManager(s *session) {
	defer p.wg.Done()
	for {
		select {
		case i := <-s.grow:
			p.wg.Add(1)
			go p.workers[i].loop()
		case <-s.quit:
			return
		}
	}
}

// retire is the shrink safe point, entered from the worker loop when the
// status word reads retiring. The worker re-publishes every task its deque
// still holds through the injector so the remaining fleet picks the work
// up; a full injector falls back to executing the task inline right here,
// so shrinking can never lose or drop a submission's task. It reports
// whether retirement completed (the loop returns) or a concurrent grow
// reactivated the worker (the loop continues).
//
//abp:owner the retiring worker's goroutine is still its deque's only owner
func (w *Worker) retire() bool {
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
		return false
	}
	p.retiredN.Add(1)
	// Hand the wake baton on. This worker may have consumed (or caused a
	// producer's signalWork to skip past) a wake token meant for real work
	// — its own re-published tasks included — so one extra signal here
	// keeps the no-lost-wakeup invariant; a spurious signal is harmless.
	p.signalWork()
	return true
}

// republish hands one drained task back through the injector, running the
// producer side of the park/wake Dekker handshake: the push must be
// visible before the wake scan reads the status words, the same contract
// Submit and Spawn honor. The task leaves this worker for good, so it goes
// out in the scope a thief would run it in (split): whoever polls it
// counts on a word of its own, like the poller of a root. Reports whether
// the injector accepted the task.
//
//abp:handshake store=pushInjector load=signalWork
func (w *Worker) republish(t *Task) bool {
	if s := t.scope.split(); s != t.scope {
		t = &Task{body: t.body, scope: s}
	}
	if !w.pool.pushInjector(t) {
		return false
	}
	w.pool.signalWork()
	return true
}
