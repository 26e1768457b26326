// External submission injector: the bounded MPMC queue that carries root
// tasks from client goroutines into the worker loops.
//
// The paper's model has a single root task handed to process zero before
// the scheduling loop starts; everything else enters the system through an
// owner's pushBottom. A long-lived service pool (Pool.Serve) breaks that
// assumption: submissions arrive concurrently from arbitrary goroutines
// that own no deque. The standard remedy — the one the Go runtime
// (globrunqget polled from findRunnable) and Tokio's global injector queue
// use atop the same work-stealing deques — is a shared MPMC queue that
// workers poll between local pops and steals. Each intra-task DAG still
// executes through the deques, so the paper's structural lemma and
// steal-bound analysis apply per submission (DESIGN.md §7, "The multi-root
// delta").
//
// The queue is the classic bounded MPMC ring of per-cell sequence numbers
// (Vyukov's design, also the shape of Go's runtime.poolDequeue): cell i
// carries a sequence word that encodes which lap of the ring it is on, so
// producers and consumers coordinate with one CAS each on their own index
// and never lock. Like the ABP deque's relaxed semantics, TryPop may
// return nil while a producer is between reserving a cell (the CAS on enq)
// and publishing it (the seq store): the queue appears momentarily
// non-empty-but-unpoppable. Len counts reserved cells, so the parking
// protocol's visibility argument errs on the safe side — a worker deciding
// whether to sleep sees the submission from the moment of reservation, not
// publication (see the Dekker note on Pool.offer).
//
// Capacity is the admission-control bound: a full ring makes TryPush
// return false and Submit reject with ErrOverloaded (or shed to the
// caller, Config.Overload) instead of queueing unboundedly.
package sched

import (
	"fmt"

	"worksteal/internal/atomicx"
	"worksteal/internal/fault"
)

// Failpoints in the injector hot paths (internal/fault; DESIGN.md §7,
// "Fault injection").
// Both sit before the reservation CAS, where a frozen goroutine holds no
// cell and therefore — per the chaos tests — cannot wedge anyone else.
var (
	fpInjectorBeforePush = fault.Register("sched.injector.beforePush",
		"injector TryPush: entered, reservation CAS not yet issued (submitter holds nothing)")
	fpInjectorBeforePop = fault.Register("sched.injector.beforePop",
		"injector TryPop: entered, dequeue CAS not yet issued (the frozen-poller chaos window)")
)

// injectorCell is one ring slot. seq is the lap-encoded coordination word:
// seq == pos means the cell is free for the producer reserving position
// pos; seq == pos+1 means it holds the value for the consumer at pos; the
// consumer releases it for the next lap with seq = pos+capacity. The task
// pointer itself is atomic so every cross-goroutine access in the package
// is a sync/atomic operation (the abplint atomicmix contract), though the
// seq protocol alone already orders it.
// Both fields are publication-only (release/acquire): the cross-queue
// Dekker visibility the parking protocol needs rides the sc reservation
// CAS on enq, not the cell words.
// The trailing pad sizes the cell to exactly one cache line: unpadded,
// four 16-byte cells pack per line and a producer publishing cell i
// collides with the consumer releasing a neighbor. The E16 ablation
// (EXPERIMENTS.md) measured the packed layout ~35% slower on contended
// submit, so the 4x ring footprint is bought deliberately.
type injectorCell struct {
	seq atomicx.PublishUint64
	t   atomicx.PublishPointer[Task]
	_   [atomicx.CacheLineSize - 16]byte
}

// injector is the bounded MPMC ring. enq and deq are the producer and
// consumer positions; they sit on separate cache lines so a submission
// burst and a draining worker do not false-share.
// enq and deq are CAS-arbitrated between producers/consumers and carry
// the parking protocol's visibility (Len's loads), so they stay sc.
type injector struct {
	enq atomicx.SCUint64
	_   atomicx.CacheLinePad
	deq atomicx.SCUint64
	_   atomicx.CacheLinePad
	// mask is capacity-1; the capacity is rounded up to a power of two so
	// position-to-slot mapping is a single AND.
	mask uint64
	// cells are line-sized (see injectorCell): element packing resolved
	// by padding after the E16 measurement, not waived.
	cells []injectorCell
}

// newInjector returns an empty ring with at least the requested capacity
// (rounded up to a power of two, minimum 2). The floor is load-bearing:
// the full test below is seq < pos, i.e. the producer one lap ahead sees
// last lap's not-yet-consumed seq, which requires positions p and p+n to
// map to the same cell with different seq expectations — with a single
// cell, p+1's free test (seq == pos) is indistinguishable from p's
// published state and a push would overwrite the unconsumed task.
func newInjector(capacity int) *injector {
	if capacity < 1 {
		panic(fmt.Sprintf("sched: injector capacity %d < 1", capacity))
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	q := &injector{mask: uint64(n - 1), cells: make([]injectorCell, n)}
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q
}

// TryPush enqueues t, returning false if the ring is full (the admission
// bound). It never blocks and never waits on another process: the only
// loop is a CAS-retry on the producer index, each failure of which means
// another producer or consumer completed an operation.
//
//abp:nonblocking
func (q *injector) TryPush(t *Task) bool {
	fault.Point(fpInjectorBeforePush)
	pos := q.enq.Load()
	for {
		i := pos & q.mask
		seq := q.cells[i].seq.Load()
		switch {
		case seq == pos:
			// The cell is free on our lap: reserve it, then publish. The
			// seq store is the publication a consumer's TryPop waits for.
			if q.enq.CompareAndSwap(pos, pos+1) {
				q.cells[i].t.Store(t)
				q.cells[i].seq.Store(pos + 1)
				return true
			}
			pos = q.enq.Load()
		case seq < pos:
			// The cell still holds last lap's value: the ring is full.
			return false
		default:
			// A racing producer advanced enq past our snapshot: reload.
			pos = q.enq.Load()
		}
	}
}

// TryPop dequeues one task, returning nil if the ring is empty — or, per
// the relaxed semantics shared with deque.PopTop, if the next cell is
// reserved but not yet published by a mid-flight producer (the task is
// still visible to Len, so no parking decision can miss it).
//
//abp:nonblocking
func (q *injector) TryPop() *Task {
	fault.Point(fpInjectorBeforePop)
	pos := q.deq.Load()
	for {
		i := pos & q.mask
		seq := q.cells[i].seq.Load()
		switch {
		case seq == pos+1:
			// Published and ours to claim.
			if q.deq.CompareAndSwap(pos, pos+1) {
				t := q.cells[i].t.Load()
				q.cells[i].t.Store(nil)
				// Release the cell for the producer one lap ahead.
				q.cells[i].seq.Store(pos + q.mask + 1)
				return t
			}
			pos = q.deq.Load()
		case seq < pos+1:
			// Empty, or reserved-not-yet-published: report nothing rather
			// than wait on the stalled producer.
			return nil
		default:
			pos = q.deq.Load()
		}
	}
}

// Len estimates the number of submissions in the ring, counting reserved
// cells whose publication is still in flight. Like deque.Dequer.Len it is
// read with atomic loads so the parking protocol's pre-block re-scan
// (Worker.anyVisibleWork) gets sequentially consistent visibility of any
// reservation that precedes a status-word read.
func (q *injector) Len() int {
	e, d := q.enq.Load(), q.deq.Load()
	if e <= d {
		return 0
	}
	return int(e - d)
}

// pushInjector is the injector's TryPush under the name the handshake
// directive below calls its store: the reservation CAS inside is what a
// parking worker's Len re-scan sees.
//
//abp:nonblocking
func (p *Pool) pushInjector(t *Task) bool { return p.inject.TryPush(t) }

// offer is the injector's producer half of the park/wake Dekker handshake,
// written once for whoever puts a task in — a submission (SubmitContext), a
// retiring worker's drain (republish), a root its deque refused
// (startSession): push, then wake. A false return means the ring is full
// and nothing was pushed; the caller sheds, runs the task itself or gives
// up. The directive makes abplint verify the order end to end: the enqueue
// (visible to a parking worker from the reservation on) must dominate the
// signalWork scan of the status words. The consumer half is park's
// store=status load=anyVisibleWork contract, whose re-scan covers the
// injector.
//
//abp:handshake store=pushInjector load=signalWork
func (p *Pool) offer(t *Task) bool {
	if !p.pushInjector(t) {
		return false
	}
	p.signalWork()
	return true
}
