package sched

import (
	"runtime"

	"worksteal/internal/atomicx"
)

// poolAbortedError is the panic value Join raises when the submission was
// aborted — by another of its tasks panicking, by a context cancellation,
// or by the pool stopping — while this future can no longer complete.
// cause holds the original panic value or the cancellation error.
type poolAbortedError struct{ cause any }

func (e poolAbortedError) Error() string { return "sched: pool run aborted" }

// panicAborted unwinds a Join or Group.Wait that observed its submission's
// abort channel closed while what it waits for is still pending. The
// receive (immediate: the channel is closed) orders the cause reads after
// the aborter's writes: panicVal for a task panic, err for a cancellation
// or service stop.
func (r *run) panicAborted() {
	<-r.abort
	cause := any(r.panicVal)
	if cause == nil {
		cause = r.err
	}
	panic(poolAbortedError{cause: cause})
}

// waitChan returns the channel a waiter about to block on *p selects on,
// installing one if none is there: completers only close what a waiter
// installed, so a fork or a group that nobody blocks on never allocates a
// channel. It is the store half of the waiter's side of the wait
// handshake — install the channel, then re-load done/pending — against
// the completer's store done/pending, then load the channel and close it
// (Future.runTask, Group.done): the same Dekker shape as park against
// signalWork, so a waiter either sees the completion on its re-load or
// the completer sees its channel.
func waitChan(p *atomicx.SCPointer[chan struct{}]) chan struct{} {
	for {
		if ch := p.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if p.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// Future is the result of a Fork: a value that becomes available when the
// forked task completes. Join retrieves it, executing other tasks while it
// waits (the "work-first" help protocol), so waiting never wastes a worker.
// The Future is also the forked task: it holds its Task inline and is that
// task's body, so Fork allocates nothing else.
type Future[T any] struct {
	task   Task
	fn     func(*Worker) T
	result T
	// done and ch are the two words of the wait handshake (waitChan), hence
	// sc; done's store also publishes result to the joiner.
	done atomicx.SCBool
	ch   atomicx.SCPointer[chan struct{}]
}

// Fork spawns fn and returns a Future for its result. The spawned task goes
// to the bottom of the caller's deque (or runs inline if the deque is
// full), so in the common un-stolen case Join pops it right back and runs
// it on the same worker — the depth-first execution order the paper notes
// is "often used" (lazy task creation).
func Fork[T any](w *Worker, fn func(*Worker) T) *Future[T] {
	f := &Future[T]{fn: fn}
	f.task = w.newTask(f)
	w.spawn(&f.task)
	return f
}

// runTask is the forked task: compute, publish, wake. A panic in fn leaves
// the future forever un-done; its joiners unwind through the submission's
// abort.
//
//abp:handshake store=done load=ch
func (f *Future[T]) runTask(w *Worker) {
	f.result = f.fn(w)
	f.done.Store(true)
	if ch := f.ch.Load(); ch != nil {
		close(*ch)
	}
}

// Join returns the future's result, helping to run other tasks until it is
// available. It must be called from a task running on the pool (pass the
// current worker). When no runnable work is visible anywhere, Join blocks
// on a channel it installs in the future rather than spinning — the same
// park-instead-of-spin discipline as the worker loop (lifecycle.go) — and
// is woken by the forked task's completion or, if the joiner's submission
// aborts (another of its tasks panicked, its context was cancelled, the
// pool stopped), by the submission's abort channel, in which case it
// panics with poolAbortedError so the abort also unwinds joiners that
// could otherwise wait forever. The abort check also runs between helped
// tasks: a joiner with a deep backlog unwinds at the next task boundary
// instead of draining the backlog first (the worker loop makes the same
// between-tasks check). In serve mode a helped task may belong to a
// different submission — execOrDrop releases and aborts per the helped
// task's own scope, and exec restores the joiner's scope afterwards.
func (f *Future[T]) Join(w *Worker) T {
	r := w.currentRun()
	for !f.done.Load() {
		select {
		case <-r.abort:
			if !f.done.Load() {
				r.panicAborted()
			}
		default:
		}
		if t, stolen := w.tryGetTask(); t != nil {
			w.execOrDrop(t, stolen)
			continue
		}
		// No runnable work found. If some deque still appears non-empty a
		// retry may find it; otherwise the forked task (or an ancestor it
		// waits on) is running on another worker and blocking is safe and
		// cheap — after one more yield, which usually lets that worker
		// finish and spares the channel.
		if w.anyVisibleWork() {
			runtime.Gosched()
			continue
		}
		runtime.Gosched()
		if f.done.Load() || w.anyVisibleWork() {
			continue
		}
		f.block(r)
	}
	return f.result
}

// block parks the joiner until the future completes or r aborts. The
// caller's loop re-checks done, so a wake for any other reason is
// harmless.
//
//abp:handshake store=waitChan load=done
func (f *Future[T]) block(r *run) {
	ch := waitChan(&f.ch)
	if f.done.Load() {
		return
	}
	select {
	case <-ch:
	case <-r.abort:
		if !f.done.Load() {
			r.panicAborted()
		}
	}
}

// Done reports whether the result is available without blocking.
func (f *Future[T]) Done() bool { return f.done.Load() }

// Join2 forks fa and runs fb inline, then joins: the classic binary
// fork-join (for example fib(n-1) in parallel with fib(n-2)).
func Join2[A, B any](w *Worker, fa func(*Worker) A, fb func(*Worker) B) (A, B) {
	fut := Fork(w, fa)
	b := fb(w)
	a := fut.Join(w)
	return a, b
}
