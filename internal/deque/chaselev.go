package deque

import (
	"worksteal/internal/atomicx"
	"worksteal/internal/fault"
)

// Failpoints mirroring the ABP ones at the Chase-Lev instruction
// boundaries (internal/fault, DESIGN.md §9).
var (
	fpCLPushBottomAfterStore = fault.Register("chaselev.pushBottom.afterStore",
		"Chase-Lev pushBottom: element stored, new bottom not yet published")
	fpCLPopTopBeforeCAS = fault.Register("chaselev.popTop.beforeCAS",
		"Chase-Lev popTop: top and element loaded, CAS not yet issued")
	fpCLPopBottomBeforeCAS = fault.Register("chaselev.popBottom.beforeCAS",
		"Chase-Lev popBottom: racing thieves for the last item, CAS not yet issued")
)

// ChaseLev is the dynamic circular work-stealing deque of Chase and Lev
// (SPAA 2005), the direct successor of the ABP deque implemented here as
// the paper's natural "unbounded deque" extension. It removes the two ABP
// limitations this package's Deque inherits from Figure 5:
//
//   - capacity is unbounded: the owner grows the circular buffer when full
//     (thieves keep reading the old buffer safely; the garbage collector
//     handles reclamation, which is why this algorithm is so pleasant in Go);
//   - no tag is needed: top only ever increases (it is never reset), so the
//     ABA problem the ABP tag solves cannot arise.
//
// The owner contract is the same as Deque: PushBottom and PopBottom are
// owner-only, PopTop is for everyone.
type ChaseLev[T any] struct {
	// top is CAS-arbitrated between thieves (and popBottom's last-item
	// race), so it stays sequentially consistent.
	top atomicx.SCInt64 // next index to steal; monotonically increasing
	// The thieves' CAS line must not be invalidated by the owner's
	// per-push bottom stores (the abplayout false-sharing finding this
	// pad resolves: top is thief-CAS-hot, bottom is owner-store-hot).
	_ atomicx.CacheLinePad
	// bottom's store in popBottom is the first half of a Dekker
	// store(bottom)→load(top) handshake, so it is declared sc.
	bottom atomicx.SCInt64 // next index to push
	// bottom is stored on every owner push/pop while thieves re-read the
	// ring pointer on every steal; keeping the owner's store target off
	// the thieves' read line saves an invalidation per owner op.
	_ atomicx.CacheLinePad
	// array is published by the owner to thieves on grow; release/acquire
	// suffices (no store→load shape involves it).
	array atomicx.PublishPointer[clRing[T]]
}

// clRing is a power-of-two circular buffer. Slots only publish a node
// between processes; the top/bottom protocol supplies ordering.
type clRing[T any] struct {
	mask int64
	buf  []atomicx.PublishPointer[T]
}

func newCLRing[T any](logSize uint) *clRing[T] {
	n := int64(1) << logSize
	return &clRing[T]{mask: n - 1, buf: make([]atomicx.PublishPointer[T], n)}
}

func (r *clRing[T]) get(i int64) *T    { return r.buf[i&r.mask].Load() }
func (r *clRing[T]) put(i int64, v *T) { r.buf[i&r.mask].Store(v) }
func (r *clRing[T]) size() int64       { return r.mask + 1 }

// grow returns a ring of twice the size holding [top, bottom).
func (r *clRing[T]) grow(top, bottom int64) *clRing[T] {
	bigger := &clRing[T]{mask: 2*r.size() - 1, buf: make([]atomicx.PublishPointer[T], 2*r.size())}
	for i := top; i < bottom; i++ {
		bigger.put(i, r.get(i))
	}
	return bigger
}

// NewChaseLev returns an empty unbounded deque with a small initial buffer.
// The constructor owns the deque until it is published to thieves, which
// is why the initial array store counts as an owner-context write.
//
//abp:owner constructor: owns the deque until it escapes
func NewChaseLev[T any]() *ChaseLev[T] {
	d := &ChaseLev[T]{}
	d.array.Store(newCLRing[T](6)) // 64 slots to start
	return d
}

var _ Dequer[int] = (*ChaseLev[int])(nil)

// Len estimates the number of items (exact for the owner when quiescent).
//
//abp:nonblocking
func (d *ChaseLev[T]) Len() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b <= t {
		return 0
	}
	return int(b - t)
}

// PushBottom appends node at the bottom, growing the buffer if needed. It
// always succeeds (the deque is unbounded) and returns true, satisfying the
// Dequer interface. Growing allocates, but never waits on another process.
//
//abp:owner deque owner: the worker this deque belongs to
//abp:nonblocking
func (d *ChaseLev[T]) PushBottom(node *T) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t >= a.size() {
		a = a.grow(t, b)
		d.array.Store(a)
	}
	a.put(b, node)
	fault.Point(fpCLPushBottomAfterStore)
	d.bottom.Store(b + 1)
	return true
}

// PopBottom removes and returns the bottommost item, or nil when empty.
//
// The bottom STORE below must be sc — it is the Dekker
// store(bottom)→load(top) half that races popTop's CAS for the last item.
//
//abp:owner deque owner: the worker this deque belongs to
//abp:nonblocking
func (d *ChaseLev[T]) PopBottom() *T {
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(t)
		return nil
	}
	node := a.get(b)
	if b > t {
		return node // more than one item: no race possible
	}
	// Single item: race thieves for it by advancing top.
	fault.Point(fpCLPopBottomBeforeCAS)
	if !d.top.CompareAndSwap(t, t+1) {
		node = nil // a thief won
	}
	d.bottom.Store(t + 1)
	return node
}

// PopTop steals the topmost item. Like the ABP popTop it may return nil
// under contention (relaxed semantics).
//
//abp:nonblocking
func (d *ChaseLev[T]) PopTop() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	a := d.array.Load()
	node := a.get(t)
	fault.Point(fpCLPopTopBeforeCAS)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return node
}
