// Pool-as-a-service: the long-lived Serve/Submit engine.
//
// Serve(ctx) starts the scheduling loops once and keeps them alive across
// submissions; Submit may be called from any goroutine and enqueues a new
// root onto the bounded injector (injector.go), which workers poll between
// local pops and steals. Each submission carries its own run record — root
// termination scope, abort cause, and the one completion word everything
// that waits for it waits on (waitWord, future.go) — so cancellation,
// panic isolation, the stall watchdog, and the chaos failpoints all apply
// per submission instead of per batch. Run and RunContext (pool.go) are the
// same session with one submission, so the entire batch test, chaos, and
// bench surface exercises this engine.
//
// The deviation from the paper's single-root model is bounded and
// documented in DESIGN.md §7 ("The multi-root delta"): every submission is
// the root of its own fully-strict intra-task DAG executed through the
// deques, so the structural lemma and the steal-bound analysis hold per
// submission; only the arrival of roots is new, and it enters through a
// queue (not a deque) the paper's deque invariants never speak about.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"worksteal/internal/atomicx"
	"worksteal/internal/deque"
)

// Errors returned by Submit and Handle.Wait.
var (
	// ErrOverloaded reports that the injector was full at submission
	// time and Config.Overload is ShedReject: the submission
	// was not enqueued and will never run. Rejection is the backpressure
	// signal — a rejected submission is never silently dropped into a
	// wedged Handle, it simply has no Handle.
	ErrOverloaded = errors.New("sched: injector full: submission rejected")
	// ErrNotServing reports a Submit on a pool with no Serve in flight.
	ErrNotServing = errors.New("sched: pool is not serving (start Pool.Serve first)")
	// ErrStopped is the abort cause for submissions still in flight when
	// Serve's context is cancelled: their Handles complete with this
	// error rather than waiting forever.
	ErrStopped = errors.New("sched: pool stopped serving before the submission completed")
)

// PanicError wraps the panic value of a task that panicked inside a
// submission, surfaced from Handle.Wait. A service caller observes the
// failure as an error; only the batch Run/RunContext API re-panics.
type PanicError struct{ Value any }

func (e PanicError) Error() string { return fmt.Sprintf("sched: task panicked: %v", e.Value) }

// OverloadPolicy selects what Submit does when the injector is full.
type OverloadPolicy uint8

const (
	// ShedReject (the default) makes Submit return ErrOverloaded.
	ShedReject OverloadPolicy = iota
	// ShedCallerRuns executes the submission synchronously on the calling
	// goroutine (depth-first, spawns run inline) — the classic
	// caller-runs backpressure: the submitter pays for its own work, which
	// throttles the arrival rate without dropping anything.
	ShedCallerRuns
)

// Run states, stored in run.state. The state is the atomic gate workers
// read before executing a popped task (execOrDrop): anything other than
// runLive means the submission aborted and the task must be discarded, and
// the state value selects the counter the discard is accounted under
// (runPanicked → Stats.TasksDropped, runCancelled → Stats.TasksCancelled,
// matching the batch API's historical accounting).
const (
	runLive int32 = iota
	runPanicked
	runCancelled
)

// run is the per-submission record: everything that used to live on Pool
// for the one batch run now lives here, one instance per Submit (and one
// per Run/RunContext call) — and one allocation: the root task, the root
// termination scope and the Handle are part of it, and it ends on a word,
// so a channel is made only if somebody has to block. Every scope of the
// submission points here, so a worker executing tasks of interleaved
// submissions always observes the right abort.
//
// Layout: scope comes first and is exactly one cache line (scope.go), and
// the record is sized to a whole number of lines, which the allocator's
// size classes keep line-aligned — so the root refs word, written at every
// spawn and task end of the worker running in the root scope, never shares
// a line with state, which every worker reads for every task of the
// submission, nor state's line with done, which a waiter and the finisher
// write (layout_test.go pins offsets and size).
type run struct {
	scope scope // the root scope: refs starts at 1, the root task
	pool  *Pool
	// state gates execution (see the constants above), and is how a Join or
	// a Group.Wait of the submission learns of its abort (help). finish
	// stores it after the outcome and before it ends done, so whoever reads
	// it aborted, or reads it after done has ended, can go on to read the
	// outcome. Publication ordering suffices: readers only gate on the
	// value, no store→load shape involves it.
	state atomicx.Publish32
	// finishOnce arbitrates the submission's single outcome: completion
	// (the root scope emptied) or abort (task panic, cancellation, engine
	// failure) — first caller wins, exactly like the old Pool.abortOnce.
	finishOnce sync.Once
	err        error
	panicVal   any
	// stopWatch holds the cancel function of the context.AfterFunc watcher
	// of a submission with a cancellable context (watch); empty otherwise.
	// Stored before the run is published to workers and called inside
	// finishOnce; atomic because an abort from another goroutine (an engine
	// failure, a session stop) may finish the submission while its
	// submitter is still arming it. Publication ordering suffices: the
	// finisher only calls what it loads.
	stopWatch atomicx.PublishPointer[func() bool]
	// done ends when the submission does, either way: Handle.Wait,
	// Handle.Done and the Run session controller block on it, and so do the
	// submission's own Joins and Group.Waits, for which ended can only mean
	// aborted (help).
	done   waitWord
	handle Handle // what Submit returns a pointer to
	root   Task   // carries &scope
	_      [24]byte
}

// newRun returns the record of a submission whose root task runs fn.
func newRun(p *Pool, fn func(*Worker)) *run {
	r := &run{pool: p}
	r.scope.run = r
	r.scope.refs.Store(1) // the root
	r.root = Task{body: taskFunc(fn), scope: &r.scope}
	r.handle.r = r
	return r
}

// finish ends the submission, once: completed, with state runLive and no
// cause (complete), or aborted. Whichever of completion, panic,
// cancellation, or engine failure arrives first wins; later calls are
// no-ops, preserving the original cause (the batch API's panic-beats-
// cancel priority falls out of call order). The cause is written first,
// then state, then the completion word: a joiner woken through done must
// find state aborted (help; run_model_test.go moves the Swap up and fails).
func (r *run) finish(state int32, err error, panicVal any) {
	r.finishOnce.Do(func() {
		if f := r.stopWatch.Load(); f != nil {
			(*f)()
		}
		r.err = err
		r.panicVal = panicVal
		r.pool.unregister(r)
		r.state.Store(state)
		r.done.finish()
	})
}

// complete ends the submission successfully. Called by the release that
// empties the root scope; a lost race against an abort is a no-op.
func (r *run) complete() { r.finish(runLive, nil, nil) }

// outcome returns the abort cause of a submission the caller has seen
// ended — an error, or the value of a task panic — or nothing for one that
// completed. The load of state orders the reads after finish's writes.
func (r *run) outcome() (err error, panicVal any) {
	if r.state.Load() == runLive {
		return nil, nil
	}
	return r.err, r.panicVal
}

// watch arms the submission's cancellation: when ctx is cancelled the
// submission — and only it — aborts with ctx.Err(). It must run before the
// root is published to workers: one may pop and complete the submission
// the instant the push lands, and r's fields must be quiescent by then.
// And it must run after register: a context cancelled already finishes the
// run from here, and a finish that found nothing to unregister would leave
// the register that followed it in the registry for good.
func (r *run) watch(ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	stop := context.AfterFunc(ctx, func() {
		r.finish(runCancelled, ctx.Err(), nil)
	})
	r.stopWatch.Store(&stop)
}

// Handle is the completion future of one submission.
type Handle struct{ r *run }

// Done returns a channel closed when the submission has ended — every
// task executed, or the submission aborted. The first Done or Wait that
// comes before the end makes the channel; Err never does.
func (h *Handle) Done() <-chan struct{} { return h.r.done.waitChan() }

// Wait blocks until the submission ends and reports its outcome: nil when
// the root and every transitively spawned task completed; a PanicError
// wrapping the original value if a task panicked; the submission
// context's error if it was cancelled; ErrStopped if the pool stopped
// serving first. Wait is safe to call from any goroutine, repeatedly.
func (h *Handle) Wait() error {
	<-h.r.done.waitChan()
	return h.result()
}

// Err returns the submission outcome without blocking: nil until Done,
// then exactly what Wait reports.
func (h *Handle) Err() error {
	if !h.r.done.isDone() {
		return nil
	}
	return h.result()
}

// result is the outcome of an ended submission as Wait and Err report it.
func (h *Handle) result() error {
	err, panicVal := h.r.outcome()
	if panicVal != nil {
		return PanicError{Value: panicVal}
	}
	return err
}

// Serve starts the workers and serves submissions until ctx is cancelled.
// It blocks for the duration of service: callers run it on its own
// goroutine and submit from others. On cancellation, submissions still in
// flight are aborted with ErrStopped (their Handles complete; tasks
// already executing finish, tasks never started are discarded and counted
// in Stats.TasksCancelled), the workers shut down, and Serve returns
// ctx.Err(). After a completed Pool.Drain (drain.go) Serve instead
// returns nil — the graceful shutdown — and the pool may Serve again.
// If a worker loop itself fails (a panic outside any task,
// e.g. an injected fault), every in-flight submission aborts with the
// panic value and Serve re-panics with it, mirroring Run.
//
// A Pool runs one session at a time: starting Serve while another Serve,
// Run, or RunContext is in flight panics, exactly like overlapping Runs.
func (p *Pool) Serve(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.enter("Serve")
	s := p.startSession(nil)
	// Open for business only now that the workers exist — and the start
	// sweep is over, which would discard a submission pushed under it.
	p.phase.Store(phaseServing)

	var err error
	select {
	case <-ctx.Done():
		err = ctx.Err()
	case <-s.stop:
		// A Drain (drain.go): admission is already closed and — unless the
		// drain's deadline expired first — every accepted submission has
		// completed, so endSession's abort is a no-op on the happy path and
		// exactly the ErrStopped fallback on expiry. Or a worker loop died
		// (engineFail), and endSession re-raises what it died of.
	}
	p.endSession(s)
	return err
}

// Submit enqueues fn as the root of a new submission and returns its
// Handle. It is callable from any goroutine, including from tasks already
// running on the pool. The returned Handle is nil exactly when the error
// is non-nil: ErrNotServing if no Serve is in flight, ErrOverloaded if
// the injector is full under the default ShedReject policy.
func (p *Pool) Submit(fn func(*Worker)) (*Handle, error) {
	return p.SubmitContext(context.Background(), fn)
}

// SubmitContext is Submit with per-submission cancellation: when ctx is
// cancelled, this submission — and only this one — aborts through the
// same plumbing RunContext uses, and its Handle.Wait returns ctx.Err().
// Tasks of the submission already executing finish; tasks not yet started
// are discarded and counted in Stats.TasksCancelled.
//
// Admission is two loads of the phase word around the push: the gate, and
// a re-check that settles what a Drain or a stop did in between (drain.go
// has the argument).
func (p *Pool) SubmitContext(ctx context.Context, fn func(*Worker)) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch p.phase.Load() {
	case phaseServing:
	case phaseDraining:
		return nil, ErrDraining
	default:
		return nil, ErrNotServing
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := newRun(p, fn)
	t := &r.root
	p.register(r)
	r.watch(ctx)
	if !p.offer(t) {
		// Full: shed.
		if p.cfg.Overload == ShedCallerRuns {
			p.callerRuns.Add(1)
			p.runOnCaller(t)
			return &r.handle, nil
		}
		r.finish(runCancelled, ErrOverloaded, nil)
		p.rejected.Add(1)
		return nil, ErrOverloaded
	}
	p.submitted.Add(1)
	switch p.phase.Load() {
	case phaseServing:
		// No Drain's CAS and no stop came before this load, so whichever
		// comes next reads the registry after our register: a Drain waits
		// for this run, a stop aborts it.
	case phaseDraining:
		// A Drain closed admission between the gate and here. Its look at
		// the registry may or may not have seen this run, so the submission
		// must not stand: abort it and report a rejection — never an
		// accepted handle a drain then fails. The task carcass is
		// discarded, and counted, at pop or sweep time.
		r.finish(runCancelled, ErrDraining, nil)
		p.submitted.Add(-1)
		p.rejected.Add(1)
		return nil, ErrDraining
	default:
		// The session stopped between the gate and here, and its abort of
		// the registry may have missed this run. Abort it so its Handle can
		// never wedge; the carcass goes the same way.
		r.finish(runCancelled, ErrStopped, nil)
	}
	return &r.handle, nil
}

// runOnCaller executes a shed submission synchronously on the submitting
// goroutine: an ephemeral worker whose deque is the zero deque.Deque, of
// capacity zero, refuses every push and so makes all spawns run inline, so the whole submission executes depth-first to
// completion before Submit returns (its Handle is already Done). The
// ephemeral worker is not in Pool.workers: nothing steals from it and its
// per-task counters are not folded into Stats — Stats.SubmitsCallerRun
// counts the shed submissions themselves. It may still have to wait — a
// Join or a Group.Wait on work a pool worker holds — and then it helps like
// any worker, stealing from the fleet's deques (stealOnce).
func (p *Pool) runOnCaller(t *Task) {
	w := &Worker{
		pool: p,
		id:   len(p.workers), // out of the victim range: never stolen from, excludes no victim
		dq:   &deque.Deque[Task]{},
	}
	w.execOrDrop(t, false)
}

// register adds a run to the active set endSession aborts.
func (p *Pool) register(r *run) {
	p.runMu.Lock()
	p.active[r] = struct{}{}
	p.runMu.Unlock()
}

// unregister removes a finished run. Called from finishOnce only.
func (p *Pool) unregister(r *run) {
	p.runMu.Lock()
	delete(p.active, r)
	p.runMu.Unlock()
}

// inFlight returns the registered runs: what endSession aborts and what a
// Drain waits for. A snapshot, so that finish's unregister does not mutate
// the map under the caller's loop. The caller holds runMu.
func (p *Pool) inFlight() []*run {
	rs := make([]*run, 0, len(p.active))
	for r := range p.active {
		rs = append(rs, r)
	}
	return rs
}

// engineFail stops the session with a worker-loop panic — a failure of the
// engine, not of any one task. First stop wins.
func (p *Pool) engineFail(v any) { p.sess.stopWith(v) }
