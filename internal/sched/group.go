package sched

import (
	"runtime"

	"worksteal/internal/atomicx"
)

// Group tracks a dynamic set of spawned tasks so they can be joined
// together — the equivalent of Cilk's sync for task sets whose size isn't
// known up front (tree searches, graph traversals). Wait helps execute
// other tasks while waiting, like Future.Join.
//
// A Group may be reused after Wait returns. Spawning from inside member
// tasks is allowed (the count covers them transitively).
type Group struct {
	// pending's decrement result is consumed (exactly one decrementer
	// observes zero and wakes the waiters): sc arbitration.
	pending atomicx.SCInt64
	// ch is swapped out by the waker — an atomic read-modify-write that
	// exactly one caller wins per generation, hence sc. It shares
	// pending's cache line on purpose: the decrementer that wins pending's
	// zero race immediately swaps ch, so the two words are dirtied in one
	// ordered sequence by the same goroutine — one invalidation, not two —
	// and a Group is a small user-allocated value not worth a 64-byte pad.
	//abp:layout-ignore pending and ch are co-written by the single winning waker per generation; padding would double a user-visible struct for one saved invalidation
	ch atomicx.SCPointer[chan struct{}]
}

// NewGroup returns an empty group.
func NewGroup() *Group {
	g := &Group{}
	ch := make(chan struct{})
	g.ch.Store(&ch)
	return g
}

// Spawn schedules fn as part of the group.
func (g *Group) Spawn(w *Worker, fn func(*Worker)) {
	g.pending.Add(1)
	w.Spawn(func(inner *Worker) {
		defer g.done()
		fn(inner)
	})
}

func (g *Group) done() {
	if g.pending.Add(-1) == 0 {
		// Wake waiters; swap in a fresh channel for reuse.
		old := g.ch.Swap(newGroupChan())
		close(*old)
	}
}

func newGroupChan() *chan struct{} {
	ch := make(chan struct{})
	return &ch
}

// Wait blocks until every task spawned into the group (so far) has
// finished, executing other tasks while it waits. Like Future.Join, Wait
// checks its own submission's abort between helped tasks, so a cancelled
// or panicked submission unwinds a helping waiter at the next task
// boundary instead of after it drains its backlog.
func (g *Group) Wait(w *Worker) {
	r := w.currentRun()
	for g.pending.Load() > 0 {
		select {
		case <-r.abort:
			if g.pending.Load() > 0 {
				r.panicAborted()
			}
		default:
		}
		if t := w.tryGetTask(); t != nil {
			w.execOrDrop(t)
			continue
		}
		if w.anyVisibleWork() {
			runtime.Gosched()
			continue
		}
		ch := g.ch.Load()
		if g.pending.Load() == 0 {
			return
		}
		select {
		case <-*ch:
		case <-r.abort:
			if g.pending.Load() > 0 {
				r.panicAborted()
			}
		}
	}
}

// Invoke runs the given functions as parallel tasks and returns when all
// have completed (TBB's parallel_invoke). The last function runs inline.
func Invoke(w *Worker, fns ...func(*Worker)) {
	if len(fns) == 0 {
		return
	}
	g := NewGroup()
	for _, fn := range fns[:len(fns)-1] {
		g.Spawn(w, fn)
	}
	fns[len(fns)-1](w)
	g.Wait(w)
}
