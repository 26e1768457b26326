// Package abporder exercises the memory-ordering necessity analyzer: raw
// and atomicx-declared variables whose every conflicting access pair is
// ordered even under adversarial caller concurrency are reported as
// over-synchronized, sc declarations with no arbitration or handshake
// evidence are demoted to publish, publish/plain declarations with hard
// sc evidence are reported as under-synchronized, loop-invariant atomic
// loads of never-written variables are flagged at the load site — while
// the paper's two load-bearing shapes (CAS arbitration and the Dekker
// store→load handshake, §3.2/Figure 5) are accepted as sc, and the
// //abp:order-ignore escape hatch suppresses.
package abporder

import (
	"sync"
	"sync/atomic"

	"worksteal/internal/atomicx"
)

// --- flagged: raw atomic fully ordered by a mutex — plain suffices ---

type lockedCounter struct {
	mu sync.Mutex
	n  atomic.Int64 // want `plain access suffices`
}

// Incr bumps the counter under the lock that every access already holds.
func (c *lockedCounter) Incr() {
	c.mu.Lock()
	c.n.Add(1)
	c.mu.Unlock()
}

// Get reads the counter under the same lock.
func (c *lockedCounter) Get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n.Load()
}

// --- flagged: declared sc, fully ordered by a mutex — plain suffices ---

type overDeclared struct {
	mu sync.Mutex
	v  atomicx.SCInt64 // want `plain discipline suffices`
}

// Set stores under the lock.
func (o *overDeclared) Set(v int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.v.Store(v)
}

// Value loads under the lock.
func (o *overDeclared) Value() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.v.Load()
}

// --- flagged: declared sc but only ever a one-way publication ---

type box struct {
	ready atomicx.SCUint32 // want `publish \(release/acquire\) discipline suffices`
	data  int
}

// Publish writes the payload and raises the flag: a release store.
func (b *box) Publish(v int) {
	b.data = v
	b.ready.Store(1)
}

// Consume checks the flag before reading the payload: an acquire load.
// Neither side ever follows its store with a load of another variable, so
// nothing here needs the store→load ordering sc adds over release/acquire.
func (b *box) Consume() (int, bool) {
	if b.ready.Load() == 1 {
		return b.data, true
	}
	return 0, false
}

// --- accepted: the Dekker store→load handshake requires sc ---

type dekkerPair struct {
	mine   atomicx.SCUint32
	theirs atomicx.SCUint32
}

// Announce raises this side's flag and then checks the other side's: the
// store→load sequence whose ordering only sequential consistency
// guarantees (the shape behind the paper's bot/age reasoning).
func (d *dekkerPair) Announce() bool {
	d.mine.Store(1)
	return d.theirs.Load() == 0
}

// AnnounceTheirs is the symmetric half.
func (d *dekkerPair) AnnounceTheirs() bool {
	d.theirs.Store(1)
	return d.mine.Load() == 0
}

// --- accepted: CAS arbitration requires sc ---

type claimable struct {
	claimed atomicx.SCUint32
}

// TryClaim arbitrates ownership with a compare-and-swap.
func (c *claimable) TryClaim() bool { return c.claimed.CompareAndSwap(0, 1) }

// --- flagged: declared publish but an Add result is consumed ---

type refCount struct {
	pending atomicx.Publish64 // want `sc discipline is required`
}

// Release decrements and acts on the result: exactly one caller observes
// zero, an arbitration a blind counter increment never performs.
func (r *refCount) Release() bool {
	return r.pending.Add(-1) == 0
}

// --- flagged: declared publish but part of a declared handshake ---

type parker struct {
	parked atomicx.Publish32 // want `sc discipline is required`
}

// Park publishes the parked flag; the protocol's other side re-checks
// emptiness, so the pair needs the full store→load ordering.
//
//abp:handshake store=Park load=Scan
func (p *parker) Park() { p.parked.Store(1) }

// Scan observes parked workers.
func (p *parker) Scan() int32 { return p.parked.Load() }

// --- flagged: declared plain but concurrently accessed with no ordering ---

type leaky struct {
	slot atomicx.PlainPointer[int] // want `publish or sc discipline is required`
}

// Run launches the filler and reads the slot with nothing ordering the two.
func (l *leaky) Run() *int {
	go l.fill()
	return l.slot.Get()
}

func (l *leaky) fill() { l.slot.Set(new(int)) }

// --- accepted: declared plain, ordered by a channel handoff ---

type handoff struct {
	slot atomicx.PlainPointer[int]
	ch   chan struct{}
}

// Start launches the producer and blocks on the channel before reading:
// the send/receive pair carries the happens-before edge plain access needs.
func (h *handoff) Start(v *int) *int {
	go h.produce(v)
	<-h.ch
	return h.slot.Get()
}

func (h *handoff) produce(v *int) {
	h.slot.Set(v)
	h.ch <- struct{}{}
}

// --- suppressed: a justified //abp:order-ignore silences the finding ---

type waived struct {
	mu sync.Mutex
	n  atomic.Int64 //abp:order-ignore fixture: demonstrates the justified escape hatch
}

// Bump would earn n a plain-suffices finding just like lockedCounter.n,
// but the directive on the declaration line waives it.
func (w *waived) Bump() {
	w.mu.Lock()
	w.n.Add(1)
	w.mu.Unlock()
}

// Read loads under the same lock.
func (w *waived) Read() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n.Load()
}

// --- flagged: loop-invariant atomic load of a never-written variable ---

type spinner struct {
	limit atomic.Int64 // want `plain access suffices`
}

// Spin reloads limit every iteration although nothing in the package ever
// writes it; the load is loop-invariant and should be hoisted.
func (s *spinner) Spin(n int) int64 {
	var sum int64
	for i := 0; i < n; i++ {
		sum += s.limit.Load() // want `loop-invariant atomic load`
	}
	return sum
}

// --- flagged: a read-only package variable behind function-style atomics ---

var tuning atomic.Int64 // want `plain access suffices`

// Tuning reads a knob that nothing in the package ever writes.
func Tuning() int64 { return tuning.Load() }
