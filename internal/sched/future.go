// Futures, and the completion word a Future and a Handle both end on
// (waitWord): the one place the install-or-load, finish and is-done steps
// of the lazy-wait protocol are written (DESIGN.md §7, "Lazy wait").
package sched

import (
	"context"

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
// a submission's Handle: nil while what it stands for is pending and
// nobody waits, the waiter one about to block installed, or, once it has
// ended, the record it ended on — doneWait, or an aborted submission's end
// record (endRecord), which carries the outcome. The completer's one Swap
// installs that record, publishes what it wrote before and takes the
// waiter to wake, so a channel is made only where somebody had to block,
// and after the Swap the completer never touches the word's record again.
// future_model_test.go and run_model_test.go check it over every
// interleaving.
type waitWord struct {
	p atomicx.SCPointer[waiter]
}

// waiter is a channel c that finish closes, or the sleep s of the word's
// one waiter — a joiner's (waitToken), the Run controller's — that it
// wakes; or an end record: doneWait's closed channel, and err, the outcome
// of the submission that ended on it.
type waiter struct {
	c   chan struct{}
	s   *sleep
	err error
}

// doneWait is the ended state of a waitWord, and the end record of a
// submission that completed: a waiter nobody installs, whose channel is
// closed from the start, so a waiter that loads it (waitChan) falls
// through its receive.
var doneWait = func() *waiter {
	ch := make(chan struct{})
	close(ch)
	return &waiter{c: ch}
}()

// The end records of the fixed causes of an abort, which every submission
// that ends on one shares.
var (
	endOverloaded = abortRecord(ErrOverloaded)
	endStopped    = abortRecord(ErrStopped)
	endDraining   = abortRecord(ErrDraining)
	endCanceled   = abortRecord(context.Canceled)
	endDeadline   = abortRecord(context.DeadlineExceeded)
)

// abortRecord makes the end record of a submission aborted with err.
func abortRecord(err error) *waiter { return &waiter{c: doneWait.c, err: err} }

// endRecord returns the record a submission with outcome err ends on:
// doneWait for a completion, a fixed cause's own, and a new one only for
// another cause — a task panic's PanicError, or the error of a context of
// the caller's own making. A switch and not a map keyed by the error:
// hashing a PanicError whose Value is a slice panics, and an interface
// compare of two different dynamic types does not.
func endRecord(err error) *waiter {
	switch err {
	case nil:
		return doneWait
	case ErrOverloaded:
		return endOverloaded
	case ErrStopped:
		return endStopped
	case ErrDraining:
		return endDraining
	case context.Canceled:
		return endCanceled
	case context.DeadlineExceeded:
		return endDeadline
	}
	return abortRecord(err)
}

// userEnd reports whether e is an end record endRecord made for its cause
// alone, which holds the user's data: a PanicError, or the error of a
// context of the caller's own making.
func userEnd(e *waiter) bool {
	switch e {
	case doneWait, endOverloaded, endStopped, endDraining, endCanceled, endDeadline:
		return false
	}
	return true
}

// waitChan returns the channel a waiter about to block receives from,
// installing one if none is there: the install either precedes finish's
// Swap, which then hands the channel to the completer to close, or fails
// against it and finds doneWait's channel, which is closed already.
func (x *waitWord) waitChan() chan struct{} {
	for {
		if w := x.p.Load(); w != nil {
			return w.c
		}
		w := &waiter{c: make(chan struct{})}
		if x.p.CompareAndSwap(nil, w) {
			return w.c
		}
	}
}

// waitToken sleeps w, the word's one waiter — the joiner of a record from
// takeFuture or takeRange — until the word ends or r aborts, with nothing
// made: the sleep is what it installs, and it takes itself back out of a
// word that has not ended, so that the completer of a record its joiner
// left wakes no later sleep of w's.
func (x *waitWord) waitToken(w *Worker, r *run) {
	s := &w.sleep
	n := s.begin()
	if !x.p.CompareAndSwap(nil, &s.join) {
		return // only finish writes a word its one waiter left nil
	}
	over := func() bool { return x.isDone() || r.aborted() }
	if !over() {
		s.wait(n, nil, over)
	}
	for !x.isDone() { // the CAS fails only against finish's Swap
		if x.p.CompareAndSwap(&s.join, nil) {
			return
		}
	}
}

// finish ends the word, once, on the record end: whatever the caller
// wrote before is published to every waiter and every load of the record,
// and the waiter installed, if any, is woken. A sleep's number is loaded
// before the Swap, while the sleep is in the word; one installed after
// that load is sent 0, on which it re-checks and finds the word ended.
func (x *waitWord) finish(end *waiter) {
	var n uint32
	old := x.p.Load()
	if old != nil && old.s != nil {
		n = old.s.n.Load()
	}
	switch w := x.p.Swap(end); {
	case w == nil:
	case w.s != nil:
		if w != old {
			n = 0
		}
		w.s.wake(n)
	default:
		close(w.c)
	}
}

// isDone reports whether finish has ended the word on doneWait, without
// blocking or installing anything: whether a Future's word has ended, the
// only record it ends on. A Handle's word may end on another, which
// Handle.Err reads.
func (x *waitWord) isDone() bool { return x.p.Load() == doneWait }

// maxFreeRecords is the slot count of each of a worker's five free lists
// (DESIGN.md §7, "Record recycling"): deep enough for the joins a fork-join
// recursion has in flight on one worker, for a wide Group fan-out, for the
// Groups a recursion has open on one worker and for the child scopes a
// burst of steals empties.
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
// records of spawned tasks, Groups' generations, the emptied child scopes —
// or returns nil if the list is empty.
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
	f.ch.finish(doneWait)
}

// Join returns the future's result, helping to run other tasks until it is
// available. It must be called from a task running on the pool (pass the
// current worker). A forked task still at the bottom of the joiner's deque
// is popped back and called (DESIGN.md §7, "Work-first join"). When no
// deque holds work it could take, Join sleeps on a channel it installs in
// the future rather than spinning — the same park-instead-of-spin
// discipline as the worker loop (lifecycle.go) — and is woken by the forked
// task's completion or, if the joiner's submission aborts (another of its
// tasks panicked, its context was cancelled, the pool stopped), by the
// abort's token to its worker's sleep, in which case it panics with
// poolAbortedError so the abort also unwinds joiners that could otherwise
// wait forever (help).
func (f *Future[T]) Join(w *Worker) T {
	if !f.Done() && w.popBack(&f.task) {
		f.call(w)
		f.ch.finish(doneWait) // a public Future may have joiners on other workers
		return f.result
	}
	return f.wait(w, false)
}

// wait is Join after its first round. Once help finds nothing to run, the
// joiner sleeps until the future completes or r ends — which, under a live
// joiner, is r aborting (help): in the word if it is the future's one
// waiter (one: joinFree), else on a channel it installs, which r's abort's
// token also ends.
func (f *Future[T]) wait(w *Worker, one bool) T {
	r := w.currentRun()
	for !f.Done() {
		switch {
		case !w.help(r):
		case one:
			f.ch.waitToken(w, r)
		default:
			w.sleep.wait(w.sleep.begin(), f.ch.waitChan(), r.aborted)
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

// Done reports whether the result is available without blocking.
func (f *Future[T]) Done() bool { return f.ch.isDone() }

// joinFree is Join for a Future from takeFuture: the Future goes back to
// w's free list once its result is out. A called task had no completer, so
// the word is still nil; else the Swap has returned and the joiner resets
// it. rangeTask.joinFree is this join with the range record's free.
func (f *Future[T]) joinFree(w *Worker) T {
	if !f.Done() && w.popBack(&f.task) {
		f.call(w)
	} else {
		f.wait(w, true)
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
