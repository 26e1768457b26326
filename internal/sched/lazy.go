// Lazy exposure: the bottom of a worker's deque is private (DESIGN.md §7,
// "Lazy exposure").
//
// The paper's deque makes every fork pay the non-blocking protocol: a
// count in the scope, the slot and bot stores of pushBottom, the bot store
// of popBottom — four fenced operations on amd64, for a fork that its own
// joiner takes back in the common, un-stolen case. After Rito and
// Paulino ("Scheduling computations with provably low synchronization
// overheads"), a worker keeps its newest engine forks — Join2's recycled
// Future, the range records of Reduce and ParallelFor, which never reach
// user code — in a private region of at most lazyK plain slots beneath its
// public deque, and exposes them on demand. Three rules govern the region:
//
//  1. Oldest fork public. A fork goes private only while the public part is
//     non-empty. A fork that finds the public part empty — thieves took it
//     — or the region full publishes the oldest private fork first. So a
//     thief can always steal a worker's oldest pending fork, as in the
//     paper; a preempted owner strands at most lazyK forks, all younger
//     than one it left stealable. So does a running or blocked one: the
//     owner polls only at a fork or a pop-back, so a long leaf or a task
//     blocked in user code holds its region for as long as it runs.
//  2. Publish on request. A thief whose PopTop misses an empty public part
//     sets the victim's wantWork. While its region holds forks, the owner
//     polls the word at every fork and every pop-back, and when it finds it
//     set publishes the whole region, signalling each fork (spawn). A
//     request to an empty region stands until the region holds a fork:
//     clearing it would only invite the next miss to store it again, and
//     E32's first simulation, which did, paid a store per node on a chain.
//     So the loop, at whose top the region is empty, does not poll.
//  3. Private forks are uncounted. A private fork adds nothing to its
//     scope. Every way out of the region but its joiner's pop-back counts
//     it first: a publish (spawn's Add), a help pop or a pop-back that
//     finds another fork on top (takePrivate), whose start or discard
//     (execOrDrop) then releases it, and the publish of what a task left
//     when it unwound (exec). endSession accounts what a dead loop left
//     under its run's abort, as drainByRun does a deque's leftovers
//     (dropRegion). Retire never holds one: the loop top, where retire
//     starts, follows an exec, which emptied the region. A private fork
//     its joiner pops back is called with nothing to release (popBack).
//
// The public deque and the region are one deque to the owner: every pop
// takes the newest fork, public or private, and the region stays under the
// deque's Room — the pushes PushBottom still accepts, which thieves that
// moved the top do not raise — so every publish succeeds and a full deque
// runs a spawn inline exactly where it did before. An un-stolen private
// fork costs the deque's Len and Room, a slot store and, while the region
// already holds forks, a load of wantWork: no read-modify-write, no fenced
// store and no signalWork.
package sched

import "worksteal/internal/fault"

// lazyK bounds the private region: the forks a preempted owner can strand.
// A power of two, so that a sequence number's slot is a mask. EXPERIMENTS.md
// E32 simulates k = 1, 4 and 8 against the paper's adversaries.
const lazyK = 4

var fpSpawnBeforePublish = fault.Register("sched.spawn.beforePublish",
	"publish: the owner is about to push its oldest private forks — the region is still out of every thief's reach")

// fork hands an engine fork, bound by bind, to the region, or posts it as a
// spawn is when the public part and the region are both empty, or the
// deque has no room for the region and this fork (rule 1).
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns its region
func (w *Worker) fork(t *Task) {
	n := w.lazyTail - w.lazyHead
	if n > 0 && w.wantWork.Load() != 0 {
		w.expose()
		n = 0
	}
	pub := w.dq.Len()
	if pub == 0 && n == 0 || int(n) >= w.dq.Room() {
		w.post(t)
		return
	}
	if pub == 0 || n == lazyK {
		w.publish(1)
	}
	w.spawnsDue++
	w.lazy[w.lazyTail%lazyK] = t
	w.lazyTail++
}

// post is a public spawn: Spawn's, Group.Spawn's and Fork's, and an engine
// fork the region does not take. The region goes first, so that the deque
// keeps the forks in the order they were made.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns its region
func (w *Worker) post(t *Task) {
	w.spawnsDue++
	if w.lazyTail != w.lazyHead {
		w.publish(w.lazyTail - w.lazyHead)
	}
	w.spawn(t)
}

// publish pushes the n oldest private forks, each counted and signalled by
// spawn. fork keeps the region within the deque's Room, so every push
// succeeds; the loop stops at an empty region all the same, since a push
// the deque refused would run its fork inline, and that exec publishes
// what is left.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns its region
func (w *Worker) publish(n uint32) {
	fault.Point(fpSpawnBeforePublish)
	for ; n > 0 && w.lazyHead != w.lazyTail; n-- {
		t := w.lazy[w.lazyHead%lazyK]
		w.lazyHead++
		w.spawn(t)
	}
}

// expose answers a thief's request for the forks in the region (rule 2):
// it clears the word, then publishes them all, so a request made after the
// clear is seen at the next poll.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns its region
func (w *Worker) expose() {
	w.wantWork.Store(0)
	w.publish(w.lazyTail - w.lazyHead)
}

// takePrivate pops the newest private fork for a helping waiter to start,
// counted in its scope as a published fork is, or returns nil if the
// region is empty.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns its region
func (w *Worker) takePrivate() *Task {
	if w.lazyTail == w.lazyHead {
		return nil
	}
	w.lazyTail--
	t := w.lazy[w.lazyTail%lazyK]
	t.scope.refs.Add(1)
	return t
}

// dropRegion accounts the forks a worker loop that died mid-exec left in
// its region, as drainByRun accounts a task left in a deque. Only
// endSession calls it, once the loops have exited and every run in flight
// has aborted: a loop that leaves at its top leaves the region empty (exec
// publishes what a task left), so only an engine failure between a task's
// end and that publish strands a fork here.
//
//abp:owner quiescent phase: every worker has exited before the sweep
func (w *Worker) dropRegion() {
	for ; w.lazyHead != w.lazyTail; w.lazyHead++ {
		w.pool.account(w.lazy[w.lazyHead%lazyK])
	}
}
