package sched

import (
	"worksteal/internal/atomicx"
)

// Group tracks a dynamic set of spawned tasks so they can be joined
// together — the equivalent of Cilk's sync for task sets whose size isn't
// known up front (tree searches, graph traversals). Wait helps execute
// other tasks while waiting, like Future.Join.
//
// A Group has one owner, the task that spawns its members and waits for
// them, as in Cilk only the procedure that spawned the children syncs
// them. A Spawn into an empty group, and Wait, are the owner's and are
// called one at a time: sync.WaitGroup's rule that a reuse's first Add
// happens after the previous Wait has returned, and one Wait at a time.
// Members, which keep the group non-empty while they run, may Spawn into
// it from any worker; the count covers them transitively. The zero Group
// is ready to use, and a Group may be reused after Wait returns.
type Group struct {
	// rec is the generation's record, taken by the Spawn that finds the
	// group without one and let go by the Wait that ends the generation.
	// The owner writes it while no member runs, and a member reads it
	// after the Spawn that published it, so it is a plain pointer: a
	// Group the caller does not leak stays on the caller's stack.
	rec *groupRec
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{} }

// groupRec is a Group's generation: its count and the slot its one waiter
// sleeps in. It never reaches user code and is recycled through the
// workers' free lists (DESIGN.md §7, "Record recycling"): the owner's
// Spawn into an empty group takes it from its worker's list, and the Wait
// that ends the generation puts it on its own worker's list.
type groupRec struct {
	// pending's decrement result is consumed (exactly one decrementer
	// observes zero and wakes the waiter), and it is the word block
	// re-loads after installing its sleep (the wait handshake): sc.
	pending atomicx.SCInt64
	// sleeper is the worker of the waiter about to block, installed by
	// block and taken back by it, or taken by the member that empties the
	// group, to wake its sleep. It shares pending's cache line on purpose:
	// that member takes the slot right after winning pending's zero race,
	// and the waiter re-loads pending right after its install, so each
	// party dirties the two words in one ordered sequence — one miss, not
	// two.
	sleeper atomicx.SCPointer[Worker]
}

// groupTask is a spawned task: the task, its body and its group's record —
// nil for Worker.Spawn's — in one record, which never reaches user code
// and is recycled through the workers' free lists (DESIGN.md §7, "Record
// recycling").
type groupTask struct {
	task Task
	g    *groupRec
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

// Spawn schedules fn as part of the group. The Spawn that finds the group
// without a record — the owner's — takes one from w's free list.
func (g *Group) Spawn(w *Worker, fn func(*Worker)) {
	r := g.rec
	if r == nil {
		if r = popFree(&w.groupRecs, &w.nGroupRecs); r == nil {
			r = new(groupRec)
		}
		g.rec = r
	}
	r.pending.Add(1)
	w.spawnMember(r, fn)
}

// free puts a record whose task has returned on w's list, cleared of its
// group and function.
//
//abp:owner the free lists belong to the goroutine running the worker
func (t *groupTask) free(w *Worker) {
	t.g, t.fn = nil, nil
	pushFree(&w.groupTasks, &w.nGroupTasks, t)
}

// done ends one member. The one that empties the group takes the worker
// its waiter installed, if any, and wakes its sleep with the number it
// loaded before the CAS (waitWord.finish's shape), leaving the slot
// empty. A done delayed past its own generation's Wait may find the record
// recycled and take the next generation's waiter, of this group or of
// another: its token ends that sleep as a wake if it carries the sleep's
// own number, or makes it look, find the slot empty and end (block), and
// either way Wait's loop finds pending above zero and blocks again.
//
//abp:handshake store=pending load=sleeper
func (g *groupRec) done() {
	if g.pending.Add(-1) != 0 {
		return
	}
	if w := g.sleeper.Load(); w != nil {
		n := w.sleep.n.Load()
		if g.sleeper.CompareAndSwap(w, nil) {
			w.sleep.wake(n)
		}
	}
}

// Wait blocks until every task spawned into the group (so far) has
// finished, executing other tasks while it waits and unwinding if its
// submission aborts, like Future.Join (help). The Wait that finds the
// count at zero ends the generation: it puts the record on w's list.
func (g *Group) Wait(w *Worker) {
	rec := g.rec
	if rec == nil {
		return
	}
	r := w.currentRun()
	for rec.pending.Load() > 0 {
		if w.help(r) {
			rec.block(w, r)
		}
	}
	g.rec = nil
	pushFree(&w.groupRecs, &w.nGroupRecs, rec)
}

// block sleeps the waiter w until the group empties or r aborts, with
// nothing made: it numbers a sleep, installs w in the slot, re-loads
// pending, sleeps, and takes w back out when it wakes — as
// waitWord.waitToken does — so that no member of this generation, or of a
// later one on the recycled record, wakes a later sleep of w's through a
// slot w has left. The take-back is a store: the group's one waiter is
// the slot's one installer, so the slot holds w, or nil if a done took
// it. Any token also ends the sleep once the slot no longer holds w: a
// done of an earlier generation, delayed past its Wait, may have taken w
// with an earlier sleep's number, and the member that empties this
// generation would then find the slot empty. Wait's loop re-checks
// pending and blocks again.
//
//abp:handshake store=sleeper load=pending
func (g *groupRec) block(w *Worker, r *run) {
	n := w.sleep.begin()
	g.sleeper.Store(w)
	if g.pending.Load() != 0 {
		w.sleep.wait(n, nil, func() bool {
			return g.pending.Load() == 0 || g.sleeper.Load() != w || r.aborted()
		})
	}
	g.sleeper.Store(nil)
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
