// Package deque implements the non-blocking work-stealing deque of Arora,
// Blumofe and Plaxton (Figures 4 and 5 of the paper), plus a mutex-based
// deque used as the ablation baseline.
//
// The deque has a bottom, operated on only by its owner (pushBottom,
// popBottom), and a top, from which thief processes steal (popTop). There is
// deliberately no pushTop, since the work-stealing algorithm never needs it.
//
// The implementation meets the paper's relaxed semantics on any good set of
// invocations (no two owner invocations concurrent): owner invocations and
// non-NIL thief invocations are linearizable, and a popTop invocation may
// return NIL if at some point during the invocation the deque is empty or
// the topmost item is removed by another process.
//
// The age variable packs the paper's (tag, top) structure into a single
// 64-bit word manipulated with atomic compare-and-swap: the tag occupies the
// high 32 bits and top the low 32 bits. The tag is changed every time the
// top index is reset so that a preempted thief's stale CAS cannot succeed
// against a recycled top index (the ABA problem). The paper adapts the
// "bounded tags" algorithm; with 2^32 tags a wrap-around inside one popTop
// invocation window is unrealizable in practice, so a plain wrapping counter
// suffices (the ABA failure with artificially tiny tag spaces is
// demonstrated in the instruction-level simulator, package sim).
package deque

import (
	"fmt"

	"worksteal/internal/atomicx"
	"worksteal/internal/fault"
)

// Failpoints compiled into the Figure 5 hot paths (internal/fault,
// DESIGN.md §9). Each sits at the instruction boundary where an
// adversarial kernel stall is most interesting; the chaos tests freeze a
// goroutine there and check that every other process keeps completing its
// own operations — the paper's non-blocking property, exercised natively.
var (
	fpPushBottomAfterStore = fault.Register("deque.pushBottom.afterStore",
		"ABP pushBottom: element stored, new bottom not yet published")
	fpPopTopBeforeCAS = fault.Register("deque.popTop.beforeCAS",
		"ABP popTop: age and bottom loaded, CAS not yet issued (the E8 stall window)")
	fpPopBottomBeforeCAS = fault.Register("deque.popBottom.beforeCAS",
		"ABP popBottom: racing thieves for the last item, CAS not yet issued")
)

// DefaultCapacity is the bound used by New.
const DefaultCapacity = 1 << 13

// age packs tag (high 32 bits) and top (low 32 bits).
func packAge(tag, top uint32) uint64       { return uint64(tag)<<32 | uint64(top) }
func unpackAge(a uint64) (tag, top uint32) { return uint32(a >> 32), uint32(a) }

// Deque is the bounded ABP deque holding items of type *T.
// The zero value is a deque of capacity zero: PushBottom returns false,
// PopBottom and PopTop return nil, and Len and Cap are 0. Construct a
// usable one with New or NewWithCapacity.
//
// Safety contract ("good set of invocations"): PushBottom and PopBottom must
// be called only by the single owner; PopTop may be called concurrently by
// any number of thieves.
type Deque[T any] struct {
	// age needs full sequential consistency: thieves arbitrate the topmost
	// item with a CAS, and popBottom's store→load Dekker handshake on
	// (bot, age) is the paper's §3.2 correctness argument.
	age atomicx.SCUint64 // (tag, top)
	// Padding separates the thieves' CAS target (age) from the owner's
	// high-frequency store target (bot), avoiding false sharing between
	// the one cache line every thief hammers and the one the owner owns.
	// A full-line pad isolates regardless of the neighbors' sizes;
	// layout_test.go pins the isolation.
	_ atomicx.CacheLinePad
	// bot is written only by the owner but participates in the same Dekker
	// handshake (store bot, then load age), so it is declared sc.
	bot atomicx.SCUint32 // index below the bottom item
	_   atomicx.CacheLinePad
	// deq slots only ever publish a node from one process to another; the
	// surrounding age/bot protocol supplies all cross-slot ordering.
	deq []atomicx.PublishPointer[T]
}

// New returns an empty deque with DefaultCapacity slots.
func New[T any]() *Deque[T] { return NewWithCapacity[T](DefaultCapacity) }

// NewWithCapacity returns an empty deque with room for capacity items.
func NewWithCapacity[T any](capacity int) *Deque[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("deque: capacity %d < 1", capacity))
	}
	if capacity >= 1<<31 {
		panic(fmt.Sprintf("deque: capacity %d does not fit in 31 bits", capacity))
	}
	return &Deque[T]{deq: make([]atomicx.PublishPointer[T], capacity)}
}

// Cap returns the deque's capacity.
func (d *Deque[T]) Cap() int { return len(d.deq) }

// Room returns how many more PushBottom calls succeed with no PopBottom
// between them: the slots from bot to the capacity. PopTop moves top and
// never bot, so a deque its thieves took from holds fewer than Cap less
// Len more items until the owner's PopBottom empties it and resets bot.
// Only the owner may call Room.
//
//abp:owner deque owner: the worker this deque belongs to
//abp:nonblocking
func (d *Deque[T]) Room() int { return len(d.deq) - int(d.bot.Load()) }

// Len returns an instantaneous estimate of the number of items. It is exact
// when called by the owner with no concurrent thieves; under concurrency it
// may be stale but is never negative.
//
// Memory-ordering note for parkers: bot and age are Go atomics, which are
// sequentially consistent, so a PushBottom that is ordered before some
// other atomic operation X is visible to any Len ordered after X. The
// scheduler's park/wake protocol (sched/lifecycle.go) depends on exactly
// this: a worker publishes its parked status and then calls Len on every
// deque, while a producer pushes and then reads the status words —
// whichever interleaving occurs, a freshly pushed task is either seen by
// the parker's Len scan or earns it a wake signal.
//
//abp:nonblocking
func (d *Deque[T]) Len() int {
	bot := d.bot.Load()
	_, top := unpackAge(d.age.Load())
	if bot <= top {
		return 0
	}
	return int(bot - top)
}

// Empty reports whether the deque appears empty (same caveats as Len).
//
//abp:nonblocking
func (d *Deque[T]) Empty() bool { return d.Len() == 0 }

// PushBottom pushes node onto the bottom of the deque (Figure 5,
// pushBottom). It returns false when the deque is full, in which case the
// caller should execute the work inline instead; this graceful degradation
// preserves depth-first semantics in the scheduler. Only the owner may call
// PushBottom.
//
//abp:owner deque owner: the worker this deque belongs to
//abp:nonblocking
func (d *Deque[T]) PushBottom(node *T) bool {
	localBot := d.bot.Load() // load localBot <- bot
	if localBot >= uint32(len(d.deq)) {
		return false
	}
	d.deq[localBot].Store(node) // store node -> deq[localBot]
	fault.Point(fpPushBottomAfterStore)
	localBot++
	d.bot.Store(localBot) // store localBot -> bot
	return true
}

// PopTop attempts to steal the topmost item (Figure 5, popTop). It returns
// nil if the deque is empty or if it loses a race with another process
// removing the topmost item (the relaxed semantics). Any process may call
// PopTop.
//
//abp:nonblocking
func (d *Deque[T]) PopTop() *T {
	oldAge := d.age.Load()   // load oldAge <- age
	localBot := d.bot.Load() // load localBot <- bot
	oldTag, oldTop := unpackAge(oldAge)
	if localBot <= oldTop { // deque empty
		return nil
	}
	node := d.deq[oldTop].Load()        // load node <- deq[oldAge.top]
	newAge := packAge(oldTag, oldTop+1) // newAge.top++
	fault.Point(fpPopTopBeforeCAS)
	if d.age.CompareAndSwap(oldAge, newAge) { // cas(age, oldAge, newAge)
		return node
	}
	return nil
}

// PopBottom pops the bottommost item (Figure 5, popBottom). It returns nil
// when the deque is empty. Only the owner may call PopBottom.
//
// The bot STORE below must be sequentially consistent — it is the first
// half of the store(bot)→load(age) Dekker handshake against popTop's
// store(age)→load(bot), the ordering §3.2's last-item race depends on.
//
//abp:owner deque owner: the worker this deque belongs to
//abp:nonblocking
func (d *Deque[T]) PopBottom() *T {
	localBot := d.bot.Load() // load localBot <- bot
	if localBot == 0 {
		return nil
	}
	localBot--
	d.bot.Store(localBot)          // store localBot -> bot
	node := d.deq[localBot].Load() // load node <- deq[localBot]
	oldAge := d.age.Load()         // load oldAge <- age
	oldTag, oldTop := unpackAge(oldAge)
	if localBot > oldTop { // more than one item remained: uncontended
		return node
	}
	// The deque held at most one item; thieves may be racing for it.
	// Reset bot, and reset age with a fresh tag so stale thief CASes fail.
	d.bot.Store(0)                 // store 0 -> bot
	newAge := packAge(oldTag+1, 0) // newAge = (tag+1, top=0)
	if localBot == oldTop {
		// Exactly one item: race the thieves for it with a CAS.
		fault.Point(fpPopBottomBeforeCAS)
		if d.age.CompareAndSwap(oldAge, newAge) {
			return node
		}
		// A thief won; age is now (oldTag, oldTop+1) and no further thief
		// can CAS (every popTop now observes bot = 0 <= top). Fall through
		// to reset age to the empty state with a fresh tag.
	}
	d.age.Store(newAge) // store newAge -> age
	return nil
}

// Reset empties the deque. It must only be called when no other process can
// access the deque (for example between runs in a pool). The tag is
// preserved and bumped so that any stale reference still fails its CAS.
//
//abp:owner deque owner: reset runs with no concurrent accessors
//abp:nonblocking
func (d *Deque[T]) Reset() {
	tag, _ := unpackAge(d.age.Load())
	d.bot.Store(0)
	d.age.Store(packAge(tag+1, 0))
	for i := range d.deq {
		d.deq[i].Store(nil)
	}
}
