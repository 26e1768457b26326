package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"worksteal/internal/sched"
)

// serveSpec describes a Serve+Submit workload. An op is one submission:
// a root that spawns its children into a Group and waits for them.
type serveSpec struct {
	open        bool
	outstanding int     // closed loop: submissions kept in flight
	fanout      int32   // closed loop: children per root
	rate        float64 // open loop: submissions per second
	spins       int     // xorshift rounds per child
	capacity    int     // Config.InjectorCapacity; 0 is the default
	lossy       bool    // refusals are what the phase measures, not failures
}

// slot is the state of one submission in flight. Slots are recycled
// through serveHarness.free, so a run allocates nothing per submission
// on the benchmark's side.
type slot struct {
	id, op, sub int32
	fan         int32
	due         int64        // what the sojourn is timed from: due time (open) or submit time (closed)
	ran         atomic.Int32 // children that have run
	root, child func(*sched.Worker)
	handle      *sched.Handle // the generator's: the slot's latest submission
	_           [72]byte      // to two cache lines: neighbouring slots belong to different workers
}

// opRecord holds the stage stamps of one submission of a traced run. The
// generator writes call and ret, the root start, end and worker, and the
// submission's waiter goroutine resolved: no field has two writers.
type opRecord struct {
	due, call, ret     int64
	start, end, worker int64
	resolved           atomic.Int64
	_                  [8]byte // to a cache line: neighbouring records belong to different workers
}

type paddedCount struct {
	n int64
	_ [56]byte
}

type serveHarness struct {
	spec   serveSpec
	pool   *sched.Pool
	stop   context.CancelFunc
	served chan error // Serve's return value
	slots  []slot
	// free holds the ids of idle slots. Its capacity is the number of
	// slots, which bounds the sends that can be pending.
	free  chan int32
	lat   [][][]float64 // [worker][sub-window] sojourn in ms, appended by the root's worker
	bad   []paddedCount // [worker] roots that saw a wrong child count
	seed  uint64
	calls int64 // Submit calls made in the current window

	arrivals *arrivalStream // open loop

	// traced runs only
	tr      *tracer
	rec     []opRecord
	backlog []float64
	waiters sync.WaitGroup
}

// openSlots bounds the open loop's submissions in flight. It exceeds the
// largest injector capacity a spec sets plus any fleet, so Submit refuses
// before the slots run out. lateEvery is how many arrivals pass between
// two samples of the generator's lateness. Both are kept small because
// the collector's cycles lengthen with what the benchmark keeps live.
const (
	openSlots = 1<<13 + 1<<10
	lateEvery = 8
)

// Every serve set-up warms the path with serveWarmOps closed-loop
// submissions, warmOutstanding at a time: about a quarter of a second,
// so that setup_s is long enough to be compared between runs.
const (
	serveWarmOps    = 20000
	warmOutstanding = 64
)

func setupServe(spec serveSpec, workers int, seed uint64, dur time.Duration, k int, tr *tracer, warmOps int) (*serveHarness, error) {
	h := &serveHarness{spec: spec, seed: leafSeed(seed, 0), tr: tr, served: make(chan error, 1)}
	h.pool = sched.New(sched.Config{Workers: workers, Seed: int64(seed), InjectorCapacity: spec.capacity})
	ctx, cancel := context.WithCancel(context.Background())
	h.stop = cancel
	go func() { h.served <- h.pool.Serve(ctx) }()

	expect := 0
	n := spec.outstanding
	if spec.open {
		h.arrivals = newArrivalStream(serveOpenGen(seed, spec.rate, dur))
		expect = h.arrivals.expected()
		n = openSlots
	}
	h.slots = make([]slot, n)
	h.free = make(chan int32, n)
	for i := range h.slots {
		s := &h.slots[i]
		s.id = int32(i)
		if tr != nil {
			s.root = func(w *sched.Worker) { h.rootTraced(s, w) }
		} else {
			s.root = func(w *sched.Worker) { h.rootPlain(s, w) }
			s.child = func(*sched.Worker) { h.body(s) }
		}
		h.free <- s.id
	}

	// Wait for Serve to open, then warm the path with closed-loop ops.
	for {
		hd, err := h.pool.Submit(func(*sched.Worker) {})
		if err == nil {
			if err := hd.Wait(); err != nil {
				return nil, fmt.Errorf("first submission: %w", err)
			}
			break
		}
		if !errors.Is(err, sched.ErrNotServing) {
			return nil, fmt.Errorf("first submission: %w", err)
		}
		runtime.Gosched()
	}
	h.prepare(1, warmOps)
	warm := h.closedLoop(time.Millisecond, 1, warmOps, warmOutstanding)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", warm.notes)
	}
	if !spec.open {
		// Size the sample buffers from the warm rate; append still grows
		// them if the estimate is short.
		perSec := float64(warm.attempted) / (float64(warm.snaps[1].wall-warm.snaps[0].wall) / 1e9)
		expect = int(perSec * dur.Seconds())
	}
	h.prepare(k, expect)
	return h, nil
}

// prepare sizes the per-worker sample buffers for a window of k
// sub-windows expected to hold about ops submissions.
func (h *serveHarness) prepare(k, ops int) {
	workers := h.pool.Workers()
	h.calls = 0
	h.lat = make([][][]float64, workers)
	h.bad = make([]paddedCount, workers)
	for w := range h.lat {
		h.lat[w] = make([][]float64, k)
		for s := range h.lat[w] {
			h.lat[w][s] = make([]float64, 0, ops/(k*workers)*5/4+64)
		}
	}
	if h.tr != nil {
		h.rec = make([]opRecord, 2*ops+64)
		h.backlog = make([]float64, 0, ops/backlogEvery+64)
	}
}

func (h *serveHarness) close() error {
	h.stop()
	if err := <-h.served; !errors.Is(err, context.Canceled) {
		return fmt.Errorf("Serve returned %v", err)
	}
	return nil
}

func (h *serveHarness) body(s *slot) {
	if spin(h.seed, h.spec.spins) == 0 {
		panic("xorshift state reached zero")
	}
	s.ran.Add(1)
}

func (h *serveHarness) rootPlain(s *slot, w *sched.Worker) {
	g := sched.NewGroup()
	for i := int32(0); i < s.fan; i++ {
		g.Spawn(w, s.child)
	}
	g.Wait(w)
	h.finish(s, w.ID(), now())
}

func (h *serveHarness) rootTraced(s *slot, w *sched.Worker) {
	me := w.ID()
	l := &h.tr.lanes[me]
	f := l.begin(spanExec)
	g := sched.NewGroup()
	for i := int32(0); i < s.fan; i++ {
		sf := l.begin(spanSpawn)
		g.Spawn(w, func(c *sched.Worker) {
			cl := &h.tr.lanes[c.ID()]
			cf := cl.begin(spanChild)
			if c.ID() != me {
				cl.started(sf.start, cf.start)
			}
			h.body(s)
			cl.end(spanChild, s.op, cf)
		})
		l.end(spanSpawn, s.op, sf)
	}
	wf := l.begin(spanWait)
	g.Wait(w)
	l.end(spanWait, s.op, wf)
	end := l.end(spanExec, s.op, f)
	if int(s.op) < len(h.rec) {
		r := &h.rec[s.op]
		r.due, r.start, r.end, r.worker = s.due, f.start, end, int64(me)
	}
	h.finish(s, me, end)
}

// finish checks the submission, records its sojourn on the worker's own
// buffer and hands the slot back.
func (h *serveHarness) finish(s *slot, worker int, end int64) {
	if s.ran.Swap(0) != s.fan {
		h.bad[worker].n++
	}
	h.lat[worker][s.sub] = append(h.lat[worker][s.sub], float64(end-s.due)/1e6)
	h.free <- s.id
}

// On a traced run every backlogEvery-th submission samples
// Stats.InjectorBacklog and every waiterEvery-th gets a goroutine that
// waits on its Handle. A waiter for every submission starts 30 000
// goroutines a second on the generator's processor and made the generator
// itself 30 ms late.
const (
	backlogEvery = 16
	waiterEvery  = 8
)

// submit sends slot s as op number op of sub-window sub and reports
// whether the pool accepted it.
func (h *serveHarness) submit(s *slot, op, sub int, fan int32, due int64) bool {
	s.op, s.sub, s.fan, s.due = int32(op), int32(sub), fan, due
	h.calls++
	if h.tr == nil || op >= len(h.rec) {
		hd, err := h.pool.Submit(s.root)
		if err != nil {
			h.free <- s.id
			return false
		}
		s.handle = hd
		return true
	}
	r := &h.rec[op]
	f := h.tr.gen().begin(spanSubmit)
	hd, err := h.pool.Submit(s.root)
	r.call, r.ret = f.start, h.tr.gen().end(spanSubmit, int32(op), f)
	if err != nil {
		h.free <- s.id
		return false
	}
	s.handle = hd
	if op%waiterEvery == 0 {
		h.waiters.Add(1)
		go func() {
			defer h.waiters.Done()
			if hd.Wait() == nil {
				r.resolved.Store(now())
			}
		}()
	}
	if op%backlogEvery == 0 {
		h.backlog = append(h.backlog, float64(h.pool.Stats().InjectorBacklog))
	}
	return true
}

// quiesce waits until the n slots in circulation are idle again and their
// submissions complete. A root hands its slot back from inside its body,
// before the pool has counted it in Stats.TasksRun; the Handle resolves
// after, so waiting on it is what makes the counters exact.
func (h *serveHarness) quiesce(n int) error {
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	ids := make([]int32, 0, n)
	for len(ids) < n {
		select {
		case id := <-h.free:
			ids = append(ids, id)
		case <-timeout.C:
			return fmt.Errorf("%d submissions still in flight after 30 s", n-len(ids))
		}
	}
	var failed error
	for _, id := range ids {
		if hd := h.slots[id].handle; hd != nil && failed == nil {
			failed = hd.Wait()
		}
		h.free <- id
	}
	h.waiters.Wait()
	return failed
}

// closedLoop keeps every slot in flight for dur (and at least minOps
// submissions), timing each from its Submit call.
func (h *serveHarness) closedLoop(dur time.Duration, k, minOps, outstanding int) *window {
	win := &window{}
	// The slots beyond outstanding sit the window out in the generator's hand.
	held := make([]int32, 0, len(h.slots))
	for len(held) < len(h.slots)-outstanding {
		held = append(held, <-h.free)
	}
	defer func() {
		for _, id := range held {
			h.free <- id
		}
	}()
	win.snaps = append(win.snaps, takeSnapshot(h.pool))
	start := win.snaps[0].wall
	accepted := 0
	for sub := 0; ; {
		s := &h.slots[<-h.free]
		t := now()
		for sub < k-1 && t-start >= subWindowEnd(dur, k, sub) {
			win.snaps = append(win.snaps, takeSnapshot(h.pool))
			sub++
		}
		if t-start >= int64(dur) && win.attempted >= minOps {
			h.free <- s.id
			break
		}
		if h.submit(s, win.attempted, sub, h.spec.fanout, t) {
			accepted++
		}
		win.attempted++
	}
	h.collect(win, k, outstanding, accepted, int64(accepted)*int64(1+h.spec.fanout), func() snapshot { return takeSnapshot(h.pool) })
	return win
}

// pace waits for due: asleep while it is far, yielding inside 2 ms of it
// (the sandbox's timers overshoot by about 1 ms), spinning at the end.
func pace(due int64) {
	for {
		switch d := due - now(); {
		case d <= 0:
			return
		case d > int64(2*time.Millisecond):
			time.Sleep(time.Duration(d) - 2*time.Millisecond)
		case d > int64(100*time.Microsecond):
			runtime.Gosched()
		}
	}
}

// openLoop submits the generated arrivals on schedule whatever the pool
// does, timing each from when it was due.
func (h *serveHarness) openLoop(dur time.Duration, k int) *window {
	// The pacing loop spins, which is the generator's cost and not the
	// pool's: locked to its thread, the generator can read its own CPU
	// time and cpu_us_per_task leaves it out. Only this generator is
	// locked; a locked goroutine that blocks, as the closed loop's does,
	// takes its waker's processor with every wake-up.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	snap := func() snapshot {
		s := takeSnapshot(h.pool)
		s.genCPU = cpuTime(rusageThread)
		return s
	}
	win := &window{genLate: make([]float64, 0, h.arrivals.expected()/lateEvery+1)}
	win.snaps = append(win.snaps, snap())
	start := win.snaps[0].wall
	accepted, sub := 0, 0
	var tasks int64
	for i := 0; ; i++ {
		a, ok := h.arrivals.next()
		if !ok {
			break
		}
		for sub < k-1 && a.DueNs >= subWindowEnd(dur, k, sub) {
			pace(start + subWindowEnd(dur, k, sub))
			win.snaps = append(win.snaps, snap())
			sub++
		}
		due := start + a.DueNs
		pace(due)
		win.attempted++
		select {
		case id := <-h.free:
			if i%lateEvery == 0 {
				win.genLate = append(win.genLate, float64(now()-due)/1e6)
			}
			if h.submit(&h.slots[id], i, sub, a.Fanout, due) {
				accepted++
				tasks += 1 + int64(a.Fanout)
			}
		default: // every slot in flight: the op is refused here, before Submit
		}
	}
	h.collect(win, k, len(h.slots), accepted, tasks, snap)
	return win
}

// collect ends a window: it waits for the submissions in flight on the
// circulating slots, takes the last snapshot, gathers the samples and
// checks the pool's counters against what the generator offered —
// exactly-once, seen from outside.
func (h *serveHarness) collect(win *window, k, circulating, accepted int, tasks int64, snap func() snapshot) {
	if err := h.quiesce(circulating); err != nil {
		win.fail(1, err.Error())
	}
	for len(win.snaps) < k+1 {
		win.snaps = append(win.snaps, snap())
	}
	win.ops = make([][]float64, k)
	samples := 0
	var bad int64
	for w := range h.lat {
		for s := range h.lat[w] {
			win.ops[s] = append(win.ops[s], h.lat[w][s]...)
			samples += len(h.lat[w][s])
		}
		bad += h.bad[w].n
	}
	if refused := win.attempted - accepted; refused > 0 && !h.spec.lossy {
		win.fail(refused, fmt.Sprintf("%d of %d submissions refused", refused, win.attempted))
	}
	if bad > 0 {
		win.fail(int(bad), fmt.Sprintf("%d roots saw a wrong child count", bad))
	}
	if samples != accepted {
		win.fail(1, fmt.Sprintf("%d submissions completed, %d accepted", samples, accepted))
	}
	a, b := win.snaps[0].stats, win.snaps[k].stats
	if ran := b.TasksRun - a.TasksRun; ran != tasks {
		win.fail(1, fmt.Sprintf("pool ran %d tasks, the accepted submissions make %d", ran, tasks))
	}
	if got := b.Submitted - a.Submitted; got != int64(accepted) {
		win.fail(1, fmt.Sprintf("pool counted %d accepted submissions, the generator %d", got, accepted))
	}
	if got := (b.Submitted - a.Submitted) + (b.SubmitsRejected - a.SubmitsRejected); got != h.calls {
		win.fail(1, fmt.Sprintf("pool counted %d submissions, the generator made %d", got, h.calls))
	}
}
