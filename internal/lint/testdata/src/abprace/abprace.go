// Package abprace exercises the happens-before race detector: plain
// counters touched from two goroutine contexts are flagged, while every
// ordering the analyzer understands — channel handoff, WaitGroup join,
// mutex lockset, atomic access, atomic release/acquire publication (its
// own or a static callee's), a record recycled by its last holder through
// a sync.Pool or a free list of the package's own — is accepted, and the
// //abp:race-ignore escape hatch suppresses. A goroutine launched through a
// field the package sets to one method value is checked as that method.
package abprace

import (
	"sync"
	"sync/atomic"
)

// --- flagged: no ordering between the sampler goroutine and the caller ---

type racer struct {
	hits int
}

// Count launches a sampler and then reads the counter with no ordering.
func Count(r *racer) int {
	go r.sample()
	return r.hits // want `possible data race on field hits`
}

func (r *racer) sample() {
	r.hits++
}

// --- flagged: two instances of the same goroutine, no mutual exclusion ---

type meter struct {
	ticks int
}

func (m *meter) tick() {
	m.ticks++ // want `possible data race on field ticks`
}

// Race2 launches the same method twice; the instances race each other.
func Race2(m *meter) {
	go m.tick()
	go m.tick()
}

// --- accepted: channel handoff orders the write before the read ---

type result struct {
	sum int
}

// Compute fills the result on a worker and synchronizes on the channel.
func Compute() int {
	res := &result{}
	done := make(chan struct{})
	go func() {
		res.sum = 42
		close(done)
	}()
	<-done
	return res.sum
}

// --- accepted: WaitGroup join orders the write before the read ---

type tally struct {
	n int
}

// Sum runs one worker under a WaitGroup and reads the tally after Wait.
func Sum() int {
	t := &tally{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t.n = 7
	}()
	wg.Wait()
	return t.n
}

// --- accepted: a mutex covers every touch of the counter ---

type locked struct {
	mu sync.Mutex
	n  int
}

func (l *locked) Bump() {
	l.mu.Lock()
	l.n++
	l.mu.Unlock()
}

func (l *locked) Get() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Spawn hammers the locked counter from an extra goroutine.
func Spawn(l *locked) {
	go l.Bump()
}

// --- accepted: both sides use sync/atomic ---

type acounter struct {
	n atomic.Int64
}

func (c *acounter) Inc() { c.n.Add(1) }

func (c *acounter) Read() int64 { return c.n.Load() }

// SpawnAtomic hammers the atomic counter from an extra goroutine.
func SpawnAtomic(c *acounter) {
	go c.Inc()
}

// --- accepted: atomic release/acquire publication ---

type box struct {
	ready atomic.Bool
	val   int
}

// Publish writes val and then releases it via the ready flag.
func Publish(b *box) {
	go func() {
		b.val = 99
		b.ready.Store(true)
	}()
}

// Consume acquires the ready flag before reading val.
func Consume(b *box) int {
	if !b.ready.Load() {
		return 0
	}
	return b.val
}

// --- suppressed: a justified //abp:race-ignore silences the finding ---

type sloppy struct {
	n int
}

func (s *sloppy) bump() {
	s.n++ //abp:race-ignore fixture: demonstrates the justified escape hatch
}

// SpawnSloppy races bump against itself and the read below; the directive
// on the access line suppresses the report.
func SpawnSloppy(s *sloppy) int {
	go s.bump()
	go s.bump()
	return s.n
}

// --- ignore grammar: a misspelled directive is no directive at all, and
// text glued to the directive word is not a justification ---

type typo struct {
	n int
}

func (s *typo) bump() {
	//abp:race-ignored fixture: the word is misspelled, so nothing is waived
	s.n++ // want `possible data race on field n of abprace.typo`
}

// SpawnTypo is SpawnSloppy under the misspelled directive.
func SpawnTypo(s *typo) int {
	go s.bump()
	go s.bump()
	return s.n
}

type glued struct {
	n int
}

func (s *glued) bump() {
	//abp:race-ignoreXYZ
	s.n++ // want `possible data race on field n of abprace.glued`
}

// SpawnGlued is SpawnSloppy under a directive with its reason glued on.
func SpawnGlued(s *glued) int {
	go s.bump()
	go s.bump()
	return s.n
}

// --- accepted: fork edges compose — the write precedes the manager's
// launch, and the worker is launched only by the manager ---

type fleet struct {
	cfg int
}

// StartFleet configures the fleet, then forks the manager that forks the
// worker: write -> go manager -> go worker orders the write before the read.
func StartFleet(f *fleet) {
	f.cfg = 1
	go f.manager()
}

func (f *fleet) manager() { go f.worker() }

func (f *fleet) worker() int { return f.cfg }

// --- flagged: the manager also runs on the external caller, so a worker
// can be launched by a call that no write precedes ---

type leakyFleet struct {
	cfg int
}

func StartLeakyFleet(f *leakyFleet) {
	f.cfg = 1 // want `possible data race on field cfg of abprace.leakyFleet`
	go f.manager()
}

func (f *leakyFleet) manager() { go f.worker() }

func (f *leakyFleet) worker() int { return f.cfg }

// Kick runs the manager on the caller's goroutine.
func Kick(f *leakyFleet) { f.manager() }

// --- flagged: the write follows the manager's launch ---

type lateFleet struct {
	cfg int
}

func StartLateFleet(f *lateFleet) {
	go f.manager()
	f.cfg = 1 // want `possible data race on field cfg of abprace.lateFleet`
}

func (f *lateFleet) manager() { go f.worker() }

func (f *lateFleet) worker() int { return f.cfg }

// --- accepted: atomic release/acquire made by static callees — the store
// inside end, the load inside ended ---

type word struct{ set atomic.Bool }

func (w *word) end()        { w.set.Store(true) }
func (w *word) ended() bool { return w.set.Load() }

type outcome struct {
	w   word
	err error
}

// Settle writes the outcome on a worker, then ends its word.
func Settle(o *outcome, err error) {
	go func() {
		o.err = err
		o.w.end()
	}()
}

// Outcome reads the outcome once the word has ended.
func Outcome(o *outcome) error {
	if !o.w.ended() {
		return nil
	}
	return o.err
}

// --- accepted: a recycled record. The consumed decrement that reaches zero
// picks the last holder, which has the record to itself until its Put, and
// Get hands what it put on as a fresh object ---

type record struct {
	holds atomic.Int32
	val   int
}

var records = sync.Pool{New: func() any { return new(record) }}

// take returns a record with two holders.
func take(v int) *record {
	r := records.Get().(*record)
	r.val = v
	r.holds.Store(2)
	return r
}

// let ends one hold; the last clears the record and puts it back.
func (r *record) let() {
	if r.holds.Add(-1) == 0 {
		r.val = 0
		records.Put(r)
	}
}

// use reads the record it holds, then lets go.
func (r *record) use() int {
	v := r.val
	r.let()
	return v
}

// Recycle shares a record with a holder on another goroutine.
func Recycle() int {
	r := take(1)
	go r.use()
	return r.use()
}

// --- flagged: written after its let, a record may be the next Get's ---

type slate struct {
	holds atomic.Int32
	val   int
}

var slates = sync.Pool{New: func() any { return new(slate) }}

func (s *slate) let() {
	if s.holds.Add(-1) == 0 {
		slates.Put(s)
	}
}

func (s *slate) finish() {
	s.let()
	s.val = 1 // want `possible data race on field val of abprace.slate`
}

func (s *slate) read() int { return s.val }

// Scribble finishes a slate on a goroutine and reads it on the caller's.
func Scribble(s *slate) int {
	go s.finish()
	return s.read()
}

// --- flagged: a pool that takes objects with no count of their holders
// hands nothing on as fresh ---

type scrap struct{ val int }

var scraps = sync.Pool{New: func() any { return new(scrap) }}

// Drop puts a scrap back whoever else may hold it.
func Drop(s *scrap) { scraps.Put(s) }

// Reuse writes a scrap Get returned.
func Reuse() *scrap {
	s := scraps.Get().(*scrap)
	s.val = 1 // want `possible data race on field val of abprace.scrap`
	return s
}

func (s *scrap) peek() int { return s.val }

// Watch reads a scrap on another goroutine.
func Watch(s *scrap) { go s.peek() }

// --- accepted: a record recycled through a free list of the package's
// own. A loop on the consumed decrement pushes each record it empties, and
// a pop hands the record on as a fresh one ---

type tile struct {
	holds atomic.Int32
	up    *tile
	val   int
}

// keeper is the free list of one goroutine.
type keeper struct {
	n     int
	slots [4]*tile
}

func push[R any](slots *[4]*R, n *int, r *R) {
	if *n < len(slots) {
		slots[*n] = r
		*n++
	}
}

func pop[R any](slots *[4]*R, n *int) *R {
	if *n == 0 {
		return nil
	}
	*n--
	return slots[*n]
}

// take returns a tile with two holders, under up.
//
//abp:owner each goroutine takes and lets go through a keeper of its own
func (k *keeper) take(up *tile, v int) *tile {
	t := pop(&k.slots, &k.n)
	if t == nil {
		t = new(tile)
	}
	t.up, t.val = up, v
	t.holds.Store(2)
	return t
}

// let ends one hold of t, and one of the tile above each tile it empties.
//
//abp:owner each goroutine takes and lets go through a keeper of its own
func (k *keeper) let(t *tile) {
	for t.holds.Add(-1) == 0 {
		up := t.up
		t.up, t.val = nil, 0
		push(&k.slots, &k.n, t)
		if up == nil {
			return
		}
		t = up
	}
}

func (t *tile) read() int { return t.val }

// Tile lets go of a tile on another goroutine while it takes another.
func Tile(k *keeper, t *tile) int {
	go func() {
		var mine keeper
		_ = t.read()
		mine.let(t)
	}()
	n := k.take(nil, 1)
	v := n.read()
	k.let(n)
	return v
}

// --- flagged: a free list pushed onto outside a last hold hands nothing
// on as fresh ---

type chip struct{ val int }

type bin struct {
	n     int
	slots [4]*chip
}

// drop lists a chip whoever else may hold it.
//
//abp:owner each goroutine drops and reuses through a bin of its own
func (b *bin) drop(c *chip) { push(&b.slots, &b.n, c) }

// reuse writes a chip it popped.
//
//abp:owner each goroutine drops and reuses through a bin of its own
func (b *bin) reuse() *chip {
	c := pop(&b.slots, &b.n)
	if c == nil {
		c = new(chip)
	}
	c.val = 1 // want `possible data race on field val of abprace.chip`
	return c
}

func (c *chip) peek() int { return c.val }

// Chip reads a chip on another goroutine while it reuses another.
func Chip(b *bin, c *chip) *chip {
	go c.peek()
	d := b.reuse()
	b.drop(c)
	return d
}

// --- flagged: a goroutine launched through a field the package only ever
// sets to one method value runs that method ---

type ticker struct {
	ticks int
	run   func()
}

// Tick launches the ticker through its field and reads the count.
func Tick() int {
	t := newTicker()
	go t.run()
	return t.ticks // want `possible data race on field ticks of abprace.ticker`
}

func newTicker() *ticker {
	t := &ticker{}
	t.run = t.tick
	return t
}

func (t *ticker) tick() { t.ticks++ }
