// Pool-as-a-service: the long-lived Serve/Submit engine.
//
// Serve(ctx) starts the scheduling loops once and keeps them alive across
// submissions; Submit may be called from any goroutine and enqueues a new
// root onto the bounded injector (injector.go), which workers poll between
// local pops and steals. Each submission carries its own run record — root
// termination scope and abort state — and its own Handle — the outcome and
// the one completion word everything that waits for it waits on (waitWord,
// future.go) — so cancellation, panic isolation, the stall watchdog, and
// the chaos failpoints all apply per submission instead of per batch. Run
// and RunContext (pool.go) are the same session with one submission, so the
// entire batch test, chaos, and bench surface exercises this engine.
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
// per Run/RunContext call) — the root task, the root termination scope,
// the abort state and the watcher. Every scope of the submission points
// here, so a worker executing tasks of interleaved submissions always
// observes the right abort. What the caller keeps is apart from it: the
// Handle, which holds the completion word and the outcome, and is the one
// object a submission allocates. The record itself is recycled (runRecords):
// it has holders (holds; DESIGN.md §7, "Record recycling"), and the last to
// let go puts it back for a later submission.
//
// Layout: scope comes first and is exactly one cache line (scope.go), and
// the record is sized to a whole number of lines, which the allocator's
// size classes keep line-aligned — so the root refs word, written at every
// spawn and task end of the worker running in the root scope, never shares
// a line with state, which every worker reads for every task of the
// submission, nor state's line with the registry links, which the
// registering and finishing of other submissions write, and the hold count
// (layout_test.go pins offsets and size).
type run struct {
	scope scope // the root scope: refs starts at 1, the root task
	// state gates execution (see the constants above), and is how a Join or
	// a Group.Wait of the submission learns of its abort (help). finish
	// stores it after the outcome and before it ends the Handle's word, so
	// whoever reads it aborted, or reads it after the word has ended, can go
	// on to read the outcome. Publication ordering suffices: readers only
	// gate on the value, no store→load shape involves it.
	state atomicx.Publish32
	pool  *Pool
	h     *Handle // what Submit returns; the completion word and the outcome
	root  Task    // carries &scope
	// finishOnce arbitrates the submission's single outcome: completion
	// (the root scope emptied) or abort (task panic, cancellation, engine
	// failure) — first caller wins, exactly like the old Pool.abortOnce.
	finishOnce sync.Once
	// stopWatch holds the cancel function of the context.AfterFunc watcher
	// of a submission with a cancellable context (watch); empty otherwise.
	// Stored before the run is published to workers and called inside
	// finishOnce; atomic because an abort from another goroutine (an engine
	// failure, a session stop) may finish the submission while its
	// submitter is still arming it. Publication ordering suffices: the
	// finisher only calls what it loads.
	stopWatch atomicx.PublishPointer[func() bool]
	// holds counts who may still touch the record: the root scope until it
	// empties, the submitter until it returns, the watcher, and each
	// registry look (inFlight). Its consumed decrement picks the one holder
	// that recycles it (let).
	holds atomicx.SCInt32
	// prev and next link the registry of in-flight runs (Pool.active),
	// guarded by Pool.runMu.
	prev, next *run
	_          [32]byte
}

// runRecords recycles run records: let puts one back once its last holder
// is done with it, and newRun takes one.
var runRecords = sync.Pool{New: func() any { return new(run) }}

// newRun returns the record of a submission whose root task runs fn, held
// by its root scope and by the caller, which lets go of it (let) once it is
// done with it — and the Handle the record will end.
func newRun(p *Pool, fn func(*Worker)) *run {
	r := runRecords.Get().(*run)
	r.pool, r.h = p, &Handle{}
	r.scope.run = r
	r.scope.refs.Store(1) // the root
	r.root = Task{body: taskFunc(fn), scope: &r.scope}
	r.state.Store(runLive)
	r.finishOnce = sync.Once{}
	r.holds.Store(2)
	return r
}

// let ends one hold on r. The last one recycles the record, cleared of what
// would keep the user's data alive: the root function, the Handle and the
// watcher.
func (r *run) let() {
	if r.holds.Add(-1) == 0 {
		r.root.body, r.h = nil, nil
		r.stopWatch.Store(nil)
		runRecords.Put(r)
	}
}

// finish ends the submission, once: completed, with state runLive and no
// cause (complete), or aborted with err — a task panic's is a PanicError.
// Whichever of completion, panic, cancellation, or engine failure arrives
// first wins; later calls are no-ops, preserving the original cause (the
// batch API's panic-beats-cancel priority falls out of call order). The
// cause is written first, then state, then the completion word: a joiner
// woken through the word must find state aborted (help; run_model_test.go
// moves the Swap up and fails). The caller is a holder of r.
func (r *run) finish(state int32, err error) {
	r.finishOnce.Do(func() {
		if stop := r.stopWatch.Load(); stop != nil && (*stop)() {
			r.let() // the watcher's: its callback will never run
		}
		r.h.err = err
		r.pool.unregister(r)
		r.state.Store(state)
		r.h.done.finish()
	})
}

// complete ends the submission successfully. Called by the release that
// empties the root scope; a lost race against an abort is a no-op.
func (r *run) complete() { r.finish(runLive, nil) }

// outcome returns the abort cause of a submission the caller has seen
// aborted (state), or nil for one that has not. The load of state orders
// the read after finish's write.
func (r *run) outcome() error {
	if r.state.Load() == runLive {
		return nil
	}
	return r.h.err
}

// watch arms the submission's cancellation: when ctx is cancelled the
// submission — and only it — aborts with ctx.Err(). The watcher holds the
// record until its callback's finish returns, or until a finish stops it
// first. watch must run before the root is published to workers: one may
// pop and complete the submission the instant the push lands, and r's
// fields must be quiescent by then. And it must run after register: a
// context cancelled already finishes the run from here, and a finish that
// found nothing to unregister would leave the register that followed it in
// the registry for good.
func (r *run) watch(ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	r.holds.Add(1)
	stop := context.AfterFunc(ctx, func() {
		r.finish(runCancelled, ctx.Err())
		r.let()
	})
	r.stopWatch.Store(&stop)
}

// Handle is the completion future of one submission: its completion word,
// and the outcome finish writes before it ends the word. It is never reused
// — a caller may keep it, and Wait on it, for as long as it likes.
type Handle struct {
	done waitWord
	err  error
}

// Done returns a channel closed when the submission has ended — every
// task executed, or the submission aborted. The first Done or Wait that
// comes before the end makes the channel; Err never does.
func (h *Handle) Done() <-chan struct{} { return h.done.waitChan() }

// Wait blocks until the submission ends and reports its outcome: nil when
// the root and every transitively spawned task completed; a PanicError
// wrapping the original value if a task panicked; the submission
// context's error if it was cancelled; ErrStopped if the pool stopped
// serving first. Wait is safe to call from any goroutine, repeatedly.
func (h *Handle) Wait() error {
	<-h.done.waitChan()
	return h.err
}

// Err returns the submission outcome without blocking: nil until Done,
// then exactly what Wait reports.
func (h *Handle) Err() error {
	if !h.done.isDone() {
		return nil
	}
	return h.err
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
	// A worker may complete the run the instant the push lands; the
	// submitter's hold keeps the record, which the re-check below may still
	// finish, from being recycled under it until SubmitContext returns.
	r := newRun(p, fn)
	defer r.let()
	h, t := r.h, &r.root
	p.register(r)
	r.watch(ctx)
	if !p.offer(t) {
		// Full: shed.
		if p.cfg.Overload == ShedCallerRuns {
			p.callerRuns.Add(1)
			p.runOnCaller(t)
			return h, nil
		}
		r.finish(runCancelled, ErrOverloaded)
		r.let() // the root scope's hold: the root never runs, so its scope never empties
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
		// discarded, and counted, at pop or sweep time. A worker may have
		// completed the run since the push, and then the abort loses: the
		// submission ran, and it is accepted.
		if r.finish(runCancelled, ErrDraining); h.Err() != nil {
			p.submitted.Add(-1)
			p.rejected.Add(1)
			return nil, ErrDraining
		}
	default:
		// The session stopped between the gate and here, and its abort of
		// the registry may have missed this run. Abort it so its Handle can
		// never wedge; the carcass goes the same way.
		r.finish(runCancelled, ErrStopped)
	}
	return h, nil
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
		// Every fork here runs inline, so no joinFree should block on it,
		// but one that did would sleep for good on a nil token.
		joinCh: make(chan struct{}, 1),
	}
	w.execOrDrop(t, false)
}

// register links a run into the registry endSession aborts.
func (p *Pool) register(r *run) {
	p.runMu.Lock()
	if r.next = p.active; r.next != nil {
		r.next.prev = r
	}
	p.active = r
	p.runMu.Unlock()
}

// unregister unlinks a finished run. Called from finishOnce only, on a run
// register linked.
func (p *Pool) unregister(r *run) {
	p.runMu.Lock()
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		p.active = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	}
	r.prev, r.next = nil, nil
	p.runMu.Unlock()
}

// inFlight returns the registered runs — what endSession aborts and what a
// Drain waits for — each with a hold the caller lets go once it is done with
// that run. A snapshot, so that finish's unregister does not unlink under the
// caller's loop. A run is registered until its finish, so its root scope
// still holds it here. The caller holds runMu.
func (p *Pool) inFlight() []*run {
	var rs []*run
	for r := p.active; r != nil; r = r.next {
		r.holds.Add(1)
		rs = append(rs, r)
	}
	return rs
}

// engineFail stops the session with a worker-loop panic — a failure of the
// engine, not of any one task. First stop wins.
func (p *Pool) engineFail(v any) { p.sess.stopWith(v) }
