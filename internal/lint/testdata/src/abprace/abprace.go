// Package abprace exercises the happens-before race detector: plain
// counters touched from two goroutine contexts are flagged, while every
// ordering the analyzer understands — channel handoff, WaitGroup join,
// mutex lockset, atomic access, atomic release/acquire publication (its
// own or a static callee's), a record recycled by its last holder through
// a sync.Pool — is accepted, and the //abp:race-ignore escape hatch
// suppresses.
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
