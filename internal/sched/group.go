package sched

import (
	"worksteal/internal/atomicx"
)

// Group tracks a dynamic set of spawned tasks so they can be joined
// together — the equivalent of Cilk's sync for task sets whose size isn't
// known up front (tree searches, graph traversals). Wait helps execute
// other tasks while waiting, like Future.Join.
//
// The zero Group is ready to use, and a Group may be reused after Wait
// returns. Spawning from inside member tasks is allowed (the count covers
// them transitively).
type Group struct {
	// pending's decrement result is consumed (exactly one decrementer
	// observes zero and wakes the waiters), and it is the word Wait
	// re-loads after installing ch (the wait handshake, waitWord.waitChan): sc.
	pending atomicx.SCInt64
	// ch is the wait channel of the current generation, installed by a
	// waiter about to block and taken by the decrementer that reaches
	// zero. It shares pending's cache line on purpose: that decrementer
	// takes ch right after winning pending's zero race, so the two words
	// are dirtied in one ordered sequence by the same goroutine — one
	// invalidation, not two — and a Group is a small user-allocated value
	// not worth a 64-byte pad.
	//abp:layout-ignore pending and ch are co-written by the single winning waker per generation; padding would double a user-visible struct for one saved invalidation
	ch waitWord
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{} }

// groupTask is a spawned task: the task, its body and its group — nil for
// Worker.Spawn's — in one record, which never reaches user code and is
// recycled through the workers' free lists (DESIGN.md §7, "Record
// recycling").
type groupTask struct {
	task Task
	g    *Group
	fn   func(*Worker)
}

// runTask runs the task and, if it returns, gives the record to the worker
// that ran it: popping the task made this worker its only holder, and exec
// does not look at the task again. A task that panics leaves its record to
// the collector; a member ends in its group either way.
func (t *groupTask) runTask(w *Worker) {
	if t.g != nil {
		defer t.g.done()
	}
	t.fn(w)
	t.free(w)
}

// Spawn schedules fn as part of the group.
func (g *Group) Spawn(w *Worker, fn func(*Worker)) {
	g.pending.Add(1)
	w.spawnMember(g, fn)
}

// free puts a record whose task has returned on w's list, cleared of its
// group and function.
//
//abp:owner the free lists belong to the goroutine running the worker
func (t *groupTask) free(w *Worker) {
	t.g, t.fn = nil, nil
	pushFree(&w.groupTasks, &w.nGroupTasks, t)
}

// done ends one member. The one that empties the group takes the channel
// the waiters installed, if any, and closes it; the slot is left empty for
// the next generation (the CAS picks one closer per channel). A done
// delayed past its own generation's Wait may take the next generation's
// channel instead: that waiter wakes, finds pending above zero, and
// installs another.
//
//abp:handshake store=pending load=take
func (g *Group) done() {
	if g.pending.Add(-1) == 0 {
		g.ch.take()
	}
}

// take is the counted slot's completion, where a Future or a run has
// finish: it closes the channel in the word, if any, and leaves the word
// empty rather than ended, because a Group has generations.
func (x *waitWord) take() {
	if w := x.p.Load(); w != nil && x.p.CompareAndSwap(w, nil) {
		close(w.c)
	}
}

// Wait blocks until every task spawned into the group (so far) has
// finished, executing other tasks while it waits and unwinding if its
// submission aborts, like Future.Join (help).
func (g *Group) Wait(w *Worker) {
	r := w.currentRun()
	for g.pending.Load() > 0 {
		if w.help(r) {
			g.block(w, r)
		}
	}
}

// block sleeps the waiter w until the group empties or r aborts; Wait's
// loop re-checks both, so a wake meant for an earlier generation is
// harmless.
//
//abp:handshake store=waitChan load=pending
func (g *Group) block(w *Worker, r *run) {
	n := w.sleep.begin()
	if ch := g.ch.waitChan(); g.pending.Load() != 0 {
		w.sleep.wait(n, ch, r.aborted)
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
