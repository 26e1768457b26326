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

// Future is the result of a Fork: a value that becomes available when the
// forked task completes. Join retrieves it, executing other tasks while it
// waits (the "work-first" help protocol), so waiting never wastes a worker.
type Future[T any] struct {
	result T
	// done is a one-way completion publication (the forked task stores, the
	// joiner loads); release/acquire covers the result handoff.
	done atomicx.PublishBool
	ch   chan struct{}
}

// Fork spawns fn and returns a Future for its result. The spawned task goes
// to the bottom of the caller's deque (or runs inline if the deque is
// full), so in the common un-stolen case Join pops it right back and runs
// it on the same worker — the depth-first execution order the paper notes
// is "often used" (lazy task creation).
func Fork[T any](w *Worker, fn func(*Worker) T) *Future[T] {
	f := &Future[T]{ch: make(chan struct{})}
	w.Spawn(func(inner *Worker) {
		f.result = fn(inner)
		f.done.Store(true)
		close(f.ch)
	})
	return f
}

// Join returns the future's result, helping to run other tasks until it is
// available. It must be called from a task running on the pool (pass the
// current worker). When no runnable work is visible anywhere, Join blocks
// on the future's channel rather than spinning — the same
// park-instead-of-spin discipline as the worker loop (lifecycle.go) — and
// is woken by the forked task's completion or, if the joiner's submission
// aborts (another of its tasks panicked, its context was cancelled, the
// pool stopped), by the submission's abort channel, in which case it
// panics with poolAbortedError so the abort also unwinds joiners that
// could otherwise wait forever. The abort check also runs between helped
// tasks: a joiner with a deep backlog unwinds at the next task boundary
// instead of draining the backlog first (the worker loop makes the same
// between-tasks check). In serve mode a helped task may belong to a
// different submission — execOrDrop charges and aborts per the helped
// task's own run, and exec restores the joiner's run afterwards.
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
		if t := w.tryGetTask(); t != nil {
			w.execOrDrop(t)
			continue
		}
		// No runnable work found. If some deque still appears non-empty a
		// retry may find it; otherwise the forked task (or an ancestor it
		// waits on) is running on another worker and blocking is safe and
		// cheap.
		if w.anyVisibleWork() {
			runtime.Gosched()
			continue
		}
		select {
		case <-f.ch:
		case <-r.abort:
			if !f.done.Load() {
				r.panicAborted()
			}
		default:
			runtime.Gosched()
			if f.done.Load() || w.anyVisibleWork() {
				continue
			}
			select {
			case <-f.ch:
			case <-r.abort:
				if !f.done.Load() {
					r.panicAborted()
				}
			}
		}
	}
	return f.result
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
