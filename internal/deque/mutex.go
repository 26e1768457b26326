package deque

import (
	"sync"

	"worksteal/internal/fault"
)

// fpMutexPopTopLocked sits inside PopTop's critical section: a goroutine
// suspended here holds the deque's mutex, so every other process that
// touches this deque blocks behind it — the falsifying control for the
// non-blocking chaos tests (the paper's §6 claim is exactly that a locking
// deque collapses under such a stall while the ABP deque does not).
var fpMutexPopTopLocked = fault.Register("mutexdeque.popTop.locked",
	"mutex popTop: inside the critical section, lock held (falsifying control)")

// Dequer is the common interface of the work-stealing deques in this
// package: the non-blocking ABP Deque and the lock-based MutexDeque used as
// the ablation baseline. All items are pointers, matching the paper's "array
// of nodes (or pointers to threads)".
type Dequer[T any] interface {
	// PushBottom pushes onto the bottom; owner only. Returns false if full.
	PushBottom(*T) bool
	// PopBottom pops from the bottom; owner only. Returns nil if empty.
	PopBottom() *T
	// PopTop steals from the top; any process. Returns nil if empty or if
	// the implementation's relaxed semantics allow a spurious failure.
	PopTop() *T
	// Len estimates the current number of items. Implementations must
	// read their indices with atomic (or lock-protected) loads: the
	// scheduler's parking protocol calls Len concurrently with owner
	// pushes and relies on sequentially consistent visibility of a
	// PushBottom that precedes a status-word read (see Deque.Len).
	Len() int
	// Room is how many more PushBottom calls succeed with no pop between
	// them; owner only. A bounded deque whose top thieves moved may take
	// fewer than its capacity less Len (Deque.Room).
	Room() int
}

var (
	_ Dequer[int] = (*Deque[int])(nil)
	_ Dequer[int] = (*MutexDeque[int])(nil)
)

// MutexDeque is a deque guarded by a single mutex. It meets the ideal deque
// semantics but is blocking: a process preempted while holding the lock
// stalls every other process that touches this deque. The paper's empirical
// claim — reproduced in experiment E8 — is that such blocking degrades
// performance dramatically in multiprogrammed environments (P_A < P).
type MutexDeque[T any] struct {
	mu    sync.Mutex
	items []*T
	cap   int
}

// NewMutex returns an empty MutexDeque with DefaultCapacity slots.
func NewMutex[T any]() *MutexDeque[T] { return NewMutexWithCapacity[T](DefaultCapacity) }

// NewMutexWithCapacity returns an empty MutexDeque with the given bound.
func NewMutexWithCapacity[T any](capacity int) *MutexDeque[T] {
	if capacity < 1 {
		panic("deque: capacity < 1")
	}
	return &MutexDeque[T]{items: make([]*T, 0, capacity), cap: capacity}
}

// PushBottom pushes node onto the bottom. Returns false when full.
func (d *MutexDeque[T]) PushBottom(node *T) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) >= d.cap {
		return false
	}
	d.items = append(d.items, node)
	return true
}

// PopBottom pops the bottommost item, or nil when empty.
func (d *MutexDeque[T]) PopBottom() *T {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return nil
	}
	node := d.items[len(d.items)-1]
	d.items[len(d.items)-1] = nil
	d.items = d.items[:len(d.items)-1]
	return node
}

// PopTop removes the topmost item, or nil when empty.
func (d *MutexDeque[T]) PopTop() *T {
	d.mu.Lock()
	defer d.mu.Unlock()
	fault.Point(fpMutexPopTopLocked)
	if len(d.items) == 0 {
		return nil
	}
	node := d.items[0]
	d.items[0] = nil
	d.items = d.items[1:]
	return node
}

// Len returns the current number of items.
func (d *MutexDeque[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

// Cap returns the deque's capacity bound.
func (d *MutexDeque[T]) Cap() int { return d.cap }

// Room returns how many more items fit: the capacity less Len.
func (d *MutexDeque[T]) Room() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cap - len(d.items)
}
