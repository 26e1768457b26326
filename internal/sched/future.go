// Futures, and the completion word a Future and a run record both end on
// (waitWord): the one place the install-or-load, finish and is-done steps
// of the lazy-wait protocol are written (DESIGN.md §7, "Lazy wait").
package sched

import (
	"worksteal/internal/atomicx"
	"worksteal/internal/fault"
)

// poolAbortedError is the panic value Join raises when the submission was
// aborted — by another of its tasks panicking, by a context cancellation,
// or by the pool stopping — while this future can no longer complete.
// cause holds the original panic value or the cancellation error.
type poolAbortedError struct{ cause any }

func (e poolAbortedError) Error() string { return "sched: pool run aborted" }

// panicAborted unwinds a Join or Group.Wait whose submission has aborted
// (help read a state that is not live) with the cause: the panic value of
// a task panic, the error of a cancellation or service stop.
func (r *run) panicAborted() {
	var cause any = r.outcome()
	if pe, ok := cause.(PanicError); ok {
		cause = pe.Value
	}
	panic(poolAbortedError{cause: cause})
}

// waitWord is a completion word, the one wait protocol of a Future and of
// a run record (and the slot a Group's waiters install into, group.go):
// nil while what it stands for is pending and nobody waits, a channel a
// waiter about to block installed, or doneWait once it has ended. The
// completer's one Swap publishes what it wrote before and takes the
// waiter's channel to close — or, if it is buffered, a single waiter's
// token channel to send a token to (waitToken) — so a channel is made only
// where somebody had to block, and after the Swap the completer never
// touches the word's record again. future_model_test.go and
// run_model_test.go check it over every interleaving.
type waitWord struct {
	p atomicx.SCPointer[chan struct{}]
}

// doneWait is the ended state of a waitWord: a pointer no waiter installs,
// to a channel that is closed from the start, so a waiter that loads it
// (waitChan) falls through its receive.
var doneWait = func() *chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return &ch
}()

// waitChan returns the channel a waiter about to block receives from,
// installing one if none is there: the install either precedes finish's
// Swap, which then hands the channel to the completer to close, or fails
// against it and finds doneWait's channel, which is closed already. For a
// Group, whose completers empty the slot instead (take), it is the store
// half of the waiter's side of the wait handshake — install the channel,
// then re-load pending — against Group.done's store pending, then take:
// the same Dekker shape as park against signalWork.
func (x *waitWord) waitChan() chan struct{} {
	for {
		if ch := x.p.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if x.p.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// waitToken is waitChan for a word with one waiter — the joiner of a
// record from takeFuture or takeRange, a Run's controller — which installs
// a token channel that outlives the wait, tok, instead of making one. tok
// has other senders (a run's abort, an abandoned record's completer, a
// stop), so a token is a reason to look again, never one to drain: a drain
// could eat the one the waiter must not miss, and a stale token costs one
// spurious wake. A word that is not nil holds tok, from an earlier round of
// this wait, or doneWait.
func (x *waitWord) waitToken(tok *chan struct{}) chan struct{} {
	if ch := x.p.Load(); ch != nil {
		return *ch
	}
	if x.p.CompareAndSwap(nil, tok) {
		return *tok
	}
	return *x.p.Load() // only finish writes a word a single waiter has left nil
}

// finish ends the word, once: whatever the caller wrote before is
// published to every waiter and every isDone, and the channel a waiter
// installed, if any, is closed — or, a token channel (waitToken), sent a
// token, unless one is pending already, which wakes the waiter as well.
func (x *waitWord) finish() {
	if ch := x.p.Swap(doneWait); ch != nil {
		if cap(*ch) == 0 {
			close(*ch)
			return
		}
		select {
		case *ch <- struct{}{}:
		default:
		}
	}
}

// isDone reports whether finish has run, without blocking or installing
// anything.
func (x *waitWord) isDone() bool { return x.p.Load() == doneWait }

// maxFreeRecords is the slot count of each of a worker's four free lists
// (DESIGN.md §7, "Record recycling"): deep enough for the joins a fork-join
// recursion has in flight on one worker, for a wide Group fan-out and for
// the child scopes a burst of steals empties.
//
// A list is a stack of slots: a take only lowers its depth, and a free
// writes the slot only if it names another record, so a fork-join
// recursion reuses its records without a pointer store. A slot at or above
// the depth may still name a record — in use, or abandoned by a joiner
// that unwound — which only a later free overwrites.
const maxFreeRecords = 64

// takeRecord pops the record on top of a free list — the slots below depth —
// if it is an R. The lists of generic records (Futures, range records) hold
// one type at a time, in slots of type any: the Worker is not generic.
//
//abp:owner the free lists belong to the goroutine running the worker
func takeRecord[R comparable](slots *[maxFreeRecords]any, depth *int32) (r R, ok bool) {
	if n := *depth; n > 0 {
		if r, ok = slots[n-1].(R); ok {
			*depth = n - 1
		}
	}
	return r, ok
}

// putRecord pushes r on a free list, emptying the list first if it holds
// records of another type, and drops r when the list is at its bound.
//
//abp:owner the free lists belong to the goroutine running the worker
func putRecord[R comparable](slots *[maxFreeRecords]any, depth *int32, r R) {
	n := *depth
	if n > 0 {
		if _, ok := slots[n-1].(R); !ok {
			n = 0
		}
	}
	if n == maxFreeRecords {
		return
	}
	if g, _ := slots[n].(R); g != r {
		slots[n] = r
	}
	*depth = n + 1
}

// popFree pops the record on top of a free list of one type — the
// records of spawned tasks, the emptied child scopes — or returns nil if
// the list is empty.
//
//abp:owner the free lists belong to the goroutine running the worker
func popFree[R any](slots *[maxFreeRecords]*R, depth *int32) *R {
	n := *depth
	if n == 0 {
		return nil
	}
	*depth = n - 1
	return slots[n-1]
}

// pushFree pushes r on a free list of one type, or drops it when the list
// is at its bound — which is what keeps a thief that runs a long burst of
// another worker's spawns from hoarding their records.
//
//abp:owner the free lists belong to the goroutine running the worker
func pushFree[R any](slots *[maxFreeRecords]*R, depth *int32, r *R) {
	n := *depth
	if n == maxFreeRecords {
		return
	}
	if slots[n] != r {
		slots[n] = r
	}
	*depth = n + 1
}

// callFlushPeriod is how many popped-back calls a worker counts between
// flushes inside one task, so that a long recursion of calls shows the
// watchdog progress.
const callFlushPeriod = 64

// Future is the result of a Fork: a value that becomes available when the
// forked task completes. Join retrieves it, executing other tasks while it
// waits (the "work-first" help protocol), so waiting never wastes a worker.
// The Future is also the forked task: it holds its Task inline and is that
// task's body, so Fork allocates nothing else.
type Future[T any] struct {
	task   Task
	fn     func(*Worker) T
	result T
	// ch is the whole completion state. The completer's finish publishes
	// result, and after it the completer never touches the Future again,
	// which is what lets Join2, Reduce and ParallelFor recycle theirs (free).
	ch waitWord
}

// Fork spawns fn and returns a Future for its result. The spawned task goes
// to the bottom of the caller's deque (or runs inline if the deque is
// full), so in the common un-stolen case Join pops it right back and calls
// fn — the depth-first order the paper notes is "often used" (lazy task
// creation). The caller keeps the Future, so it is the collector's; the
// fork inside Join2 takes its Future from the worker's free list
// (takeFuture), and the forks of Reduce and ParallelFor are range records
// that embed theirs (parallel.go); each is otherwise this.
func Fork[T any](w *Worker, fn func(*Worker) T) *Future[T] {
	f := &Future[T]{fn: fn}
	w.bind(&f.task, f)
	w.post(&f.task)
	return f
}

// fork makes the pending Future f, which never reaches user code, the task
// that runs fn, and forks it.
func (f *Future[T]) fork(w *Worker, fn func(*Worker) T) *Future[T] {
	f.fn = fn
	f.start(w)
	return f
}

// start forks the pending Future f, which never reaches user code, as the
// task that runs f.fn: it may go to w's private region (lazy.go).
func (f *Future[T]) start(w *Worker) {
	w.bind(&f.task, f)
	w.fork(&f.task)
}

// takeFuture returns a pending Future for a fork whose Future never reaches
// user code: the one w freed last, or a new one when the list is empty or
// holds Futures of another result type.
func takeFuture[T any](w *Worker) *Future[T] {
	if f, ok := takeRecord[*Future[T]](&w.futures, &w.nFutures); ok {
		return f
	}
	return new(Future[T])
}

// free returns f, which takeFuture handed out and joinFree is done with, its
// word nil, to w's free list; nothing else refers to f: a Future whose task
// panicked, was discarded or is still running when its joiner unwinds
// never comes here and is the collector's once no slot names it. The
// user's function and result are dropped either way; a Future over the
// bound is too, and so is a list of another result type, which f replaces.
//
//abp:owner the free lists belong to the goroutine running the worker
func (f *Future[T]) free(w *Worker) {
	var zero T
	f.fn, f.result = nil, zero
	putRecord(&w.futures, &w.nFutures, f)
}

// runTask is the forked task when its joiner does not call it: compute,
// then publish and wake in one step. A panic in fn leaves the future
// forever pending; its joiners unwind through the submission's abort.
func (f *Future[T]) runTask(w *Worker) {
	f.result = f.fn(w)
	f.ch.finish()
}

// Join returns the future's result, helping to run other tasks until it is
// available. It must be called from a task running on the pool (pass the
// current worker). A forked task still at the bottom of the joiner's deque
// is popped back and called (DESIGN.md §7, "Work-first join"). When no
// deque holds work it could take, Join blocks on a channel it installs in
// the future rather than spinning — the same park-instead-of-spin
// discipline as the worker loop (lifecycle.go) — and is woken by the forked
// task's completion or, if the joiner's submission aborts (another of its
// tasks panicked, its context was cancelled, the pool stopped), by the
// abort's token on its worker's joinCh, in which case it panics with
// poolAbortedError so the abort also unwinds joiners that could otherwise
// wait forever (help).
func (f *Future[T]) Join(w *Worker) T {
	if !f.Done() && w.popBack(&f.task) {
		f.call(w)
		f.ch.finish() // a public Future may have joiners on other workers
		return f.result
	}
	return f.wait(w, nil)
}

// wait is Join after its first round. tok is the token channel of the
// joiner's worker when the joiner is the future's only waiter (joinFree),
// and nil for a public Future, whose waiters each install a channel.
func (f *Future[T]) wait(w *Worker, tok *chan struct{}) T {
	r := w.currentRun()
	for !f.Done() {
		if w.help(r) {
			f.block(w, r, tok)
		}
	}
	return f.result
}

// call runs f's task, popped back by its joiner w, with execOrDrop's gate
// and runTask's recover but not their frames or w.scope writes (w runs in
// the task's scope already). The task is counted before it runs, as exec
// counts one that panics, in w's owner block — flushed by exec, and by
// every callFlushPeriod-th call — and whatever release it owes its scope
// popBack has settled. An abort discards the task — a state never returns
// to live — and unwinds as in help.
//
//abp:owner the counters are written only by the goroutine running the worker
func (f *Future[T]) call(w *Worker) {
	s := f.task.scope
	if st := s.run.state.Load(); st != runLive {
		w.discard(st)
		s.run.panicAborted()
	}
	if w.runsDue++; w.runsDue == callFlushPeriod {
		w.flush()
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.run.finish(runPanicked, PanicError{Value: rec})
			s.run.panicAborted()
		}
	}()
	fault.Point(fpExecBeforeRun)
	f.result = f.fn(w)
}

// block parks the joiner w until the future completes or r ends — which,
// under a live joiner, is r aborting (help): on tok, w's joinCh, which the
// completer and r's abort both send to, or on a channel of its own and
// abortCh. Join's loop re-checks both, so a stale token is harmless.
func (f *Future[T]) block(w *Worker, r *run, tok *chan struct{}) {
	if tok != nil {
		<-f.ch.waitToken(tok)
		return
	}
	abort := w.abortCh(r)
	select {
	case <-f.ch.waitChan():
	case <-abort:
	}
}

// abortCh is the channel r's abort wakes a waiter on w through: w's joinCh,
// or, on the caller-runs worker, which finish sends no token to, r's word.
func (w *Worker) abortCh(r *run) chan struct{} {
	if w.id < len(w.pool.workers) {
		return w.joinCh
	}
	return r.h.done.waitChan()
}

// Done reports whether the result is available without blocking.
func (f *Future[T]) Done() bool { return f.ch.isDone() }

// joinFree is Join for a Future from takeFuture: the Future goes back to
// w's free list once its result is out. A called task had no completer, so
// the word is still nil; else the Swap has returned and the joiner resets it.
// The joiner is the Future's only waiter, so a block waits on w's token.
// rangeTask.joinFree is this join with the range record's free.
func (f *Future[T]) joinFree(w *Worker) T {
	if !f.Done() && w.popBack(&f.task) {
		f.call(w)
	} else {
		f.wait(w, &w.joinCh)
		f.ch.p.Store(nil)
	}
	v := f.result
	f.free(w)
	return v
}

// Join2 forks fa and runs fb inline, then joins: the classic binary
// fork-join (for example fib(n-1) in parallel with fib(n-2)). The two
// halves may run in either order, on one worker as on several: the fork
// may wait in w's private region (lazy.go) until fb returns, or be stolen
// and run first — as it could with a full deque or on one worker before —
// so neither half may block on the other. The worker answers a thief's
// request for its region only when it next forks or joins, so while fb
// computes or blocks, fa may stay out of every other worker's reach, with
// at most three more of w's youngest forks.
func Join2[A, B any](w *Worker, fa func(*Worker) A, fb func(*Worker) B) (A, B) {
	fut := takeFuture[A](w).fork(w, fa)
	b := fb(w)
	return fut.joinFree(w), b
}
