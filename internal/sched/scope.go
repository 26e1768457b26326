// Termination accounting: scopes split at steals (DESIGN.md §7).
//
// A submission ends when its root and every task transitively spawned from
// it have ended. Counting that on one word per submission would put two
// read-modify-writes per task on a cache line every worker shares, where
// the paper's processes meet only at steals. So the count is kept as a
// tree of scopes that grows one node per steal: a worker counts the tasks
// it spawns and ends on a word of its own, and reports to the scope it
// stole from once, when its own count reaches zero.
package sched

import "worksteal/internal/atomicx"

// scope is one node of a submission's termination tree. The root scope is
// part of the run record; every other scope is made by split for a task
// that leaves the worker that spawned it: by a steal (exec) or by a
// retiring worker's republish.
//
// Invariant: refs ≥ the un-ended tasks that carry this scope + the child
// scopes whose own refs is not yet zero, with equality whenever no exec
// running in the scope is in flight. A task is counted from its spawn
// (or, for the root, from newRun) until exec or execOrDrop's discard
// releases it; a fork its joiner calls (Future.call) has ended before it
// is released, by the exec it was called under, which releases it with
// its own task in one step and still counts that task meanwhile. When a
// task is stolen its count stays where it is and stands for the child
// scope the thief runs it in. Zero is therefore final — only a task
// counted in the scope can add to it, by spawning while it runs there —
// and the release that reaches zero passes one release on to the parent,
// or completes the run at the root.
//
// Writers: the one worker that runs in the scope (an Add per spawn, a
// release per exec — only the worker that made the scope, first ran
// the root, or took the scope over (split) has it as Worker.scope, and
// tasks that carry it are pushed on that worker's deque alone), plus each
// thief once, when the child it split off empties. The trailing pad gives
// every refs word a line to itself: scopes are 64-byte heap objects, and
// the run record is laid out around its root scope (serve.go).
type scope struct {
	// refs is sc: the decrement's result is consumed — exactly one
	// releaser observes zero and passes the release on.
	refs   atomicx.SCInt64
	parent *scope // nil at the root
	run    *run
	_      [atomicx.CacheLineSize - 24]byte
}

// split returns the scope a task counted in s runs in once it has left
// the worker that spawned it: a new child of s that counts that one task.
// The exception keeps a chain of tasks that each spawn the next and end
// from nesting one scope per steal: if refs is 1, the one is the task in
// the caller's hands, so nothing else is counted in s — no task runs in
// it, and none can start to — and the caller takes s over as it is. A
// count that still holds folded calls only makes the take-over rarer.
func (s *scope) split() *scope {
	if s.refs.Load() == 1 {
		return s
	}
	c := &scope{parent: s, run: s.run}
	c.refs.Store(1)
	return c
}

// release ends n tasks of s (or one emptied child). The release that
// empties a scope releases its parent once in turn; emptying the root
// completes the run, which is a no-op if an abort got there first.
func (s *scope) release(n int64) {
	for s.refs.Add(-n) == 0 {
		if s.parent == nil {
			s.run.complete()
			return
		}
		s, n = s.parent, 1
	}
}
