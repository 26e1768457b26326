// Package sched is the production side of the reproduction: a work-stealing
// task scheduler for Go built on the paper's non-blocking ABP deque
// (package deque). Each worker is one of the paper's "processes": it owns a
// deque, pops work from the bottom, and when idle yields the processor and
// steals from the top of a uniformly random victim's deque — exactly the
// Figure 3 scheduling loop, with Go's runtime playing the kernel. Unlike
// Figure 3, an idle worker does not spin forever: after repeated failed
// steals it backs off and parks, and Spawn wakes it when stealable work
// appears (see lifecycle.go for the protocol and why it preserves the
// paper's yield semantics).
//
// Two APIs are provided over the one worker loop:
//
//   - a task API (Spawn, Fork/Join futures, ParallelFor/Reduce) in the style
//     of the Hood threads library the authors built on this scheduler, and
//   - a service API (Serve, Submit, Handle — serve.go) that keeps the
//     workers alive across submissions arriving concurrently from any
//     goroutine, with bounded-injector admission control. Run and
//     RunContext are one-submission sessions of the same engine.
//
// The spawn path writes no word that another worker writes: a fork is one
// record (the Future is the task) that Join2, Reduce, ParallelFor and
// Group.Spawn take from and return to a free list of the worker's own, one
// push, one pop, and two counter updates on a line of the executing
// worker's own. The count of un-ended tasks that ends a run is kept in
// scopes split at steals (scope.go), so workers meet where the paper's
// processes do — at steals.
//
// The dag runner (RunGraph — graphrun.go), which executes an explicit
// computation dag with known work and critical-path length for the
// experiments that check the paper's T1/P_A + Tinf*P/P_A bound on real
// hardware, is a client of the task API: a node that enables two children
// continues into one and Spawns the other.
//
// For the paper's ablations, the pool can be configured with a mutex-guarded
// deque instead of the non-blocking one, and with a ParkThreshold that is
// never reached (the pure spinning loop of Figure 3).
package sched

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"worksteal/internal/atomicx"
	"worksteal/internal/deque"
	"worksteal/internal/fault"
)

// Failpoints compiled into the scheduler (internal/fault, DESIGN.md §9).
// sched.loop.beforeSteal fires only for loop-level steals (never for a
// Join helping itself to work), so a chaos run can freeze thieves without
// ever freezing the joiner that must later resume them.
var (
	fpLoopEnter = fault.Register("sched.loop.enter",
		"worker loop: before the handoff check and first pop (crash here strands the root handoff)")
	fpLoopBeforeSteal = fault.Register("sched.loop.beforeSteal",
		"worker loop: idle, about to poll the injector and attempt a steal (loop-level steals only)")
	fpStealBeforePopTop = fault.Register("sched.steal.beforePopTop",
		"stealOnce: victim chosen, PopTop not yet issued (any steal, including Join helps)")
	fpExecBeforeRun = fault.Register("sched.exec.beforeRun",
		"exec: termination accounting armed, task function not yet entered")
	fpParkBeforeSleep = fault.Register("sched.park.beforeSleep",
		"park: parked flag published and re-check passed, not yet blocked on the token channel")
	fpBackoffBeforeSleep = fault.Register("sched.backoff.beforeSleep",
		"backoff: idle flags published and re-check passed, timed nap not yet entered")
)

// DequeKind selects the deque implementation workers use.
type DequeKind uint8

const (
	// DequeABP is the paper's non-blocking deque (the default).
	DequeABP DequeKind = iota
	// DequeMutex is the blocking reference deque the tests compare against.
	DequeMutex
	// DequeChaseLev is the unbounded growable successor design (Chase and
	// Lev, SPAA 2005) — the paper's natural extension: no capacity bound,
	// no tag needed. Spawns never fall back to inline execution.
	DequeChaseLev
)

// Config configures a Pool.
type Config struct {
	// Workers is the number of worker goroutines (the paper's P processes).
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// MaxWorkers caps Pool.Resize growth (resize.go): worker structures —
	// deque, rng, park channel — are pre-allocated up to this bound at New
	// time, so a mid-Serve grow only has to start a goroutine. Slots in
	// [Workers, MaxWorkers) begin retired. 0 defaults to Workers (a fixed
	// fleet, exactly the pre-elastic behavior); values below Workers panic.
	MaxWorkers int
	// Deque selects the deque implementation (default DequeABP).
	Deque DequeKind
	// DequeCapacity bounds each worker's deque; when a push finds the deque
	// full the task runs inline, which preserves correctness and depth-first
	// order at the cost of stealable parallelism. Defaults to
	// deque.DefaultCapacity.
	DequeCapacity int
	// InjectorShards is the number of bounded MPMC injector queues external
	// submissions (Pool.Submit) are spread over. More shards cost workers a
	// slightly longer poll scan but cut contention between concurrent
	// submitters. Defaults to max(1, min(8, Workers/4)).
	InjectorShards int
	// InjectorCapacity bounds each injector shard (rounded up to a power of
	// two, minimum 2); a submission finding every shard full is shed per
	// Overload.
	// This is the service mode's admission-control knob. Defaults to 1024.
	InjectorCapacity int
	// Overload selects the shed policy for submissions that find every
	// injector shard full: ShedReject (default) returns ErrOverloaded,
	// ShedCallerRuns executes the submission on the submitting goroutine.
	Overload OverloadPolicy
	// ParkThreshold is the number of consecutive failed steal attempts
	// after which an idle worker starts backing off toward parking
	// (lifecycle.go). 0 means the default, max(8, 2*Workers), enough hot
	// rounds that a random thief has touched most victims before giving up.
	// math.MaxInt is never reached, so it is the paper's pure spinning loop
	// — yield and steal forever, no nap, no park — at a full core per idle
	// worker.
	ParkThreshold int
	// Seed seeds victim selection; 0 means a fixed default.
	Seed int64
	// StallTimeout enables the stall watchdog (watchdog.go): a worker
	// goroutine that makes no scheduler-visible progress for this window
	// while unparked is surfaced via OnStall and Stats.StallsDetected
	// instead of hanging silently. 0 disables the watchdog.
	StallTimeout time.Duration
	// OnStall, if non-nil, is called by the watchdog goroutine once per
	// detected stall episode. It must be safe to call concurrently with
	// the run and must not block for long (it delays later detections).
	OnStall func(StallReport)
}

// Task is the unit of work handled by the scheduler: a body and the
// termination scope (scope.go) the spawn counted it in. The scope leads to
// the task's submission, so a worker executing tasks of interleaved
// submissions always releases the right counter and observes the right
// abort. Only a bare Spawn allocates a Task by itself: Future, groupTask
// and the run record each hold theirs inline (and the first two are its
// body), so a fork is one record, and a recycled one where the record
// never reaches user code.
type Task struct {
	body  taskBody
	scope *scope
}

// taskBody is what a task runs. The two pointer-shaped implementations —
// a record that holds its Task inline (Future, groupTask) and taskFunc —
// convert to the interface without allocating.
type taskBody interface{ runTask(w *Worker) }

// taskFunc is the body of a task that is just a function: Spawn's, and a
// submission's root.
type taskFunc func(*Worker)

func (fn taskFunc) runTask(w *Worker) { fn(w) }

// Pool is a work-stealing scheduler instance. Create one with New, then
// either use the batch API — Run or RunContext, possibly several times in
// sequence — or start the service engine with Serve and feed it with
// Submit from any goroutine (serve.go). A Pool hosts one engine at a time;
// overlapping Run/RunContext/Serve calls panic with a clear error rather
// than corrupting the session state.
type Pool struct {
	cfg           Config
	parkThreshold int
	workers       []*Worker
	inject        []*injector
	// Ordering disciplines (internal/atomicx, checked by abporder): the
	// SC-declared fields either arbitrate (shardRR's consumed Add, running's
	// CAS) or participate in the park/submit handshakes (stopped, serving,
	// idle, and the submission counters are all read or written inside
	// //abp:handshake carrier functions, whose store→load shape needs the
	// full ordering). The Publish-declared counters are blind increments
	// read only by Stats — release/acquire publication suffices.
	//
	// Layout discipline (abplayout, DESIGN.md §8): the three arbitration
	// words below — running's session CAS, shardRR's per-submission Add,
	// wakeRR's per-signal Add, idle's park/signal Dekker reads — each sit
	// on their own cache line so none is invalidated by writes to the
	// others or to the counters; the cold flags and the blindly
	// incremented counters may share lines freely among themselves.
	stopped atomicx.SCBool // session shutdown flag: the loop-exit condition
	serving atomicx.SCBool // a Serve is accepting Submits
	_       atomicx.CacheLinePad
	// draining is the admission gate a Drain closes (drain.go); sc because
	// it is Dekker-paired with Submit's post-push re-check, and CAS'd (one
	// Drain wins per session) — an arbitration word, so its own line.
	draining atomicx.SCBool
	_        atomicx.CacheLinePad
	running  atomicx.SCBool // guards against concurrent Run/RunContext/Serve
	_        atomicx.CacheLinePad
	shardRR  atomicx.SCUint32 // submission shard rotation (injector.go)
	_        atomicx.CacheLinePad
	wakeRR   atomicx.SCUint32 // wake scan rotation (signalWork, lifecycle.go)
	_        atomicx.CacheLinePad
	idle     atomicx.SCInt32 // workers parked or in a backoff nap (lifecycle.go)
	_        atomicx.CacheLinePad
	// fleet is the elastic-fleet size: workers [0, fleet) are the active
	// prefix victim selection draws from (stealOnce). Written rarely — by
	// Resize under resizeMu — and read on every steal attempt, so it gets
	// its own line away from the mutated arbitration words and counters.
	// publish: readers only gate victim ranges on the value; the per-worker
	// state words (CAS'd, sc) carry the retire arbitration.
	fleet      atomicx.Publish32
	_          atomicx.CacheLinePad
	dropped    atomicx.Publish64 // tasks discarded after a panic-aborted submission
	cancelledN atomicx.Publish64 // tasks discarded by a cancelled/stopped submission
	stalls     atomicx.Publish64 // stall episodes surfaced by the watchdog
	resizes    atomicx.Publish64 // Resize calls that changed the fleet target
	retiredN   atomicx.Publish64 // workers that completed retirement (resize.go)
	submitted  atomicx.SCInt64   // submissions accepted onto the injector
	rejected   atomicx.SCInt64   // submissions rejected with ErrOverloaded
	callerRuns atomicx.SCInt64   // submissions shed to the caller (ShedCallerRuns)
	wg         sync.WaitGroup

	// Elastic-fleet control (resize.go): resizeMu serializes Resize calls
	// against each other and against session start/stop; sessionLive tells
	// Resize whether the session's fleet manager exists right now. growCh
	// feeds worker-slot activations to the manager goroutine startSession
	// forks — worker loops are only ever launched from startSession's
	// subtree, which keeps the session fork edge the single publication
	// root for the workers' plain fields. All three are accessed under
	// resizeMu (the manager holds only its own local copies).
	resizeMu    sync.Mutex
	sessionLive bool
	growCh      chan int

	// Active-submission registry: every in-flight run, registered at
	// submission and removed by its finishOnce. The shutdown and
	// engine-failure paths abort the whole set.
	runMu  sync.Mutex
	active map[*run]struct{}

	// Per-session channels, created by startSession before any worker
	// starts (the go statement is the publication edge). quit is closed by
	// endSession to wake parked workers for shutdown; fail is closed by
	// engineFail when a worker loop dies, with failVal readable after.
	quitCh   chan struct{}
	failCh   chan struct{}
	failOnce sync.Once
	failVal  any

	// Graceful-drain plumbing (drain.go), per session like quitCh/failCh.
	// All three fields are written by startSession and read by Drain under
	// runMu (the mutex is the happens-before edge for the external Drain
	// goroutine). drainReq is closed by the winning Drain to bring Serve
	// down; drainIdle is closed — by unregister or by Drain itself — when
	// the active set empties while draining; drainSignaled guards that
	// close.
	drainReq      chan struct{}
	drainIdle     chan struct{}
	drainSignaled bool
}

// Worker is the execution context passed to every task; it identifies the
// worker goroutine running the task and provides the spawning operations.
type Worker struct {
	// The wiring: set by New and only read afterwards (handoff apart, which
	// a session start writes if a fresh deque refuses the root), because
	// every thief's stealOnce and every anyVisibleWork scan comes through
	// this line for dq.
	pool *Pool
	id   int
	dq   deque.Dequer[Task]
	rng  *rand.Rand
	// handoff is the root task fallback slot (startSession), consumed by
	// loop; declared plain because every access pair is ordered by the
	// session fork/join edges — for loops the fleet manager forks
	// mid-session, by the composed startSession→manager→loop fork chain,
	// which abprace and abporder follow (launchedAfter).
	handoff atomicx.PlainPointer[Task]
	parkCh  chan struct{} // capacity-1 wake token (lifecycle.go)
	// parked is half of the park/wake Dekker handshake
	// (//abp:handshake store=parked load=anyVisibleWork): sc required.
	// Every producer's signalWork scans every worker's parked flag, so the
	// flag gets its own cache line — neither the cold per-worker wiring
	// above nor the owner-hot counters below may dirty the line the whole
	// pool polls (the abplayout Worker finding; reverting either pad
	// re-flags the live tree).
	_      atomicx.CacheLinePad
	parked atomicx.SCBool
	_      atomicx.CacheLinePad

	// state is the elastic-fleet membership word (resize.go):
	// workerActive / workerRetiring / workerRetired. Every producer's
	// signalWork scans it right next to parked, and Resize and the retiring
	// worker arbitrate retirement on it by CAS (retire vs reactivate), so —
	// like parked — it sits on its own cache line, clear of both the
	// pool-scanned flag above and the owner-hot counters below. sc: the CAS
	// arbitration and the reads inside the signalWork handshake carrier
	// both need full ordering.
	state atomicx.SCInt32
	_     atomicx.CacheLinePad

	// What only the goroutine running the worker touches, with plain
	// accesses, on the line its counters start on: exec stores scope twice
	// a task, and a fork or Group.Spawn and its join pop and push a free
	// list.
	scope *scope // termination scope of the task currently executing (exec)
	// freeFutures and freeGroupTasks head the LIFO lists of records this
	// worker may reuse (takeFuture, takeGroupTask; DESIGN.md §7): Futures
	// of one result type — held as any, the Worker not being generic — and
	// group members, each list at most maxFreeRecords long.
	freeFutures     any
	freeGroupTasks  *groupTask
	nFreeFutures    int32
	nFreeGroupTasks int32
	napTimer        *time.Timer // park's backoff naps re-arm this one timer

	// progress ticks on every loop iteration and task completion; the
	// stall watchdog (watchdog.go) reads it to tell a live worker from one
	// frozen mid-operation. Written only by the worker's own goroutine
	// (loop/exec/execOrDrop, all //abp:owner).
	progress atomicx.Publish64

	// Per-worker counters, summed by Pool.Stats. Atomics so Stats is safe
	// to call while the run is in flight. The Publish-declared ones are
	// owner-only blind increments; the SC-declared ones are updated inside
	// //abp:handshake carrier functions (Spawn, park), which abporder pins
	// to full ordering.
	tasksRun      atomicx.Publish64
	spawns        atomicx.SCInt64
	inlineRuns    atomicx.SCInt64
	steals        atomicx.Publish64
	stealAttempts atomicx.Publish64
	yields        atomicx.Publish64
	parks         atomicx.SCInt64
	wakes         atomicx.SCInt64
	backoffNanos  atomicx.SCInt64
}

// New builds a pool. The zero Config is valid.
func New(cfg Config) *Pool {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("sched: %d workers", cfg.Workers))
	}
	if cfg.DequeCapacity == 0 {
		cfg.DequeCapacity = deque.DefaultCapacity
	}
	if cfg.DequeCapacity < 1 {
		panic(fmt.Sprintf("sched: deque capacity %d", cfg.DequeCapacity))
	}
	if cfg.ParkThreshold < 0 {
		panic(fmt.Sprintf("sched: park threshold %d", cfg.ParkThreshold))
	}
	if cfg.MaxWorkers == 0 {
		cfg.MaxWorkers = cfg.Workers
	}
	if cfg.MaxWorkers < cfg.Workers {
		panic(fmt.Sprintf("sched: MaxWorkers %d below Workers %d", cfg.MaxWorkers, cfg.Workers))
	}
	if cfg.InjectorShards == 0 {
		cfg.InjectorShards = max(1, min(8, cfg.Workers/4))
	}
	if cfg.InjectorShards < 1 {
		panic(fmt.Sprintf("sched: %d injector shards", cfg.InjectorShards))
	}
	if cfg.InjectorCapacity == 0 {
		cfg.InjectorCapacity = 1024
	}
	if cfg.InjectorCapacity < 1 {
		panic(fmt.Sprintf("sched: injector capacity %d", cfg.InjectorCapacity))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5EED
	}
	p := &Pool{cfg: cfg, parkThreshold: cfg.ParkThreshold, active: map[*run]struct{}{}}
	if p.parkThreshold == 0 {
		p.parkThreshold = max(8, 2*cfg.Workers)
	}
	for i := 0; i < cfg.InjectorShards; i++ {
		p.inject = append(p.inject, newInjector(cfg.InjectorCapacity))
	}
	// The whole [0, MaxWorkers) fleet is allocated up front; slots beyond
	// the initial Workers begin retired and cost nothing until a Resize
	// activates them.
	for i := 0; i < cfg.MaxWorkers; i++ {
		var dq deque.Dequer[Task]
		switch cfg.Deque {
		case DequeMutex:
			dq = deque.NewMutexWithCapacity[Task](cfg.DequeCapacity)
		case DequeChaseLev:
			dq = deque.NewChaseLev[Task]()
		default:
			dq = deque.NewWithCapacity[Task](cfg.DequeCapacity)
		}
		w := &Worker{
			pool:   p,
			id:     i,
			dq:     dq,
			rng:    rand.New(rand.NewSource(seed + int64(i)*1_000_003)),
			parkCh: make(chan struct{}, 1),
		}
		if i >= cfg.Workers {
			w.state.Store(workerRetired)
		}
		p.workers = append(p.workers, w)
	}
	p.fleet.Store(int32(cfg.Workers))
	return p
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Run executes root on worker 0 and returns once root and every task
// transitively spawned from it have completed.
// If a task panics, the run aborts: remaining workers stop, and Run
// re-panics with the original value (tasks already stolen may still finish;
// tasks still in deques are dropped — and drained before the next Run, so
// they can never leak into it).
func (p *Pool) Run(root func(*Worker)) {
	// context.Background can never cancel, so the only error RunContext
	// can return here is nil.
	_ = p.RunContext(context.Background(), root)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes) the run aborts through the same plumbing a task panic
// uses — workers stop after their current task, parked workers and blocked
// Joins wake — and RunContext returns ctx.Err(). Tasks that were spawned
// but never ran are discarded and counted in Stats.TasksCancelled; tasks
// already executing cannot be preempted and run to completion.
//
// A nil error means root and every transitively spawned task completed.
// If a task panics before any cancellation, RunContext re-panics with the
// original value, exactly like Run. The pool remains reusable after either
// outcome.
//
// Since the service refactor (serve.go), Run and RunContext are
// one-submission sessions of the service engine: the same worker loops,
// run records, and abort plumbing serve both APIs, so the batch tests and
// chaos suite exercise the engine Submit feeds.
func (p *Pool) RunContext(ctx context.Context, root func(*Worker)) error {
	if !p.running.CompareAndSwap(false, true) {
		panic("sched: Pool.Run/RunContext called concurrently with a run already in flight on this pool (a Pool serves one run at a time)")
	}
	defer p.running.Store(false)
	r := newRun(p, root)
	p.register(r)
	if err := ctx.Err(); err != nil {
		// Already cancelled: abort before any worker starts, so the root
		// handoff/push is discarded (and counted) rather than executed.
		r.abortWith(runCancelled, err, nil)
	}
	p.startSession(&r.root)

	// Auxiliary goroutines: the context watcher and the stall watchdog.
	// Both exit when the run ends (stopAux) or the run aborts.
	stopAux := make(chan struct{})
	var aux sync.WaitGroup
	if ctx.Done() != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			select {
			case <-ctx.Done():
				r.abortWith(runCancelled, ctx.Err(), nil)
			case <-r.finished:
			case <-stopAux:
			}
		}()
	}
	if p.cfg.StallTimeout > 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			p.watchdog(stopAux)
		}()
	}

	// The run ends — every task executed, or the submission aborted by a
	// panic, a cancellation, or an engine failure — and the session comes
	// down with it.
	<-r.finished
	p.endSession()
	close(stopAux)
	aux.Wait()

	if r.state.Load() == runCancelled {
		// Quiescent again: every worker has exited (endSession), so the
		// run goroutine may drain what the cancelled run left behind —
		// including a root the abort stranded in its handoff slot.
		p.drainByRun()
		return r.err
	}
	if r.panicVal != nil {
		// A panic-aborted run deliberately leaves its carcass for the
		// next session's begin-drain (startSession), preserving the
		// historical TasksDropped accounting and the lexical ordering the
		// static race analysis of the handoff slot relies on.
		panic(r.panicVal)
	}
	return nil
}

// startSession resets the per-session state, drains everything a previous
// aborted session left behind — deque tasks, injector carcasses, stranded
// handoff roots, stale wake tokens — so stale work can neither execute in
// the new session nor corrupt its accounting, delivers the batch API's
// root (if any), and forks the worker loops. The victim rng deliberately is
// not reset: random victim selection is the paper's stochastic model, and
// reseeding it would only launder scheduling nondeterminism into false
// reproducibility.
//
// Reset, root delivery, and fork deliberately share one function body: the
// caller holds the running guard and no workers exist yet, so the calling
// goroutine is a legitimate owner for every deque, and every plain write
// here is ordered against the worker goroutines by the lexical fork edge
// of the go statements below — the ordering the static race detector
// checks.
//
// The root, when non-nil, goes to worker 0 while the pool is still
// quiescent — the batch API's fast path, bypassing the injector the way
// the paper hands the root thread to process zero before the loop starts.
// The fresh deque cannot refuse it with the stock deques, but a refusal
// must not be silently dropped (it would strand the submission's root
// scope at 1): fall back to the direct handoff slot, which worker 0's
// loop consumes before its first pop — the same run-it-anyway guarantee
// Spawn provides via inline execution.
//
//abp:owner quiescent phase: workers have not been started yet
func (p *Pool) startSession(root *Task) {
	p.stopped.Store(false)
	// The session channels — quit/fail and the drain pair — are read by
	// goroutines outside the session's fork edges (Drain most of all), so
	// they are published under runMu, the lock those readers take.
	p.runMu.Lock()
	p.quitCh = make(chan struct{})
	p.failCh = make(chan struct{})
	p.drainReq = make(chan struct{})
	p.drainIdle = make(chan struct{})
	p.drainSignaled = false
	p.runMu.Unlock()
	p.failOnce = sync.Once{}
	p.failVal = nil
	p.draining.Store(false)
	// Sweep carcasses a previous aborted session left behind (including a
	// root stranded in a handoff slot, which must not execute as a ghost
	// of the session that submitted it), accounted per each task's own
	// submission: a panic's leftovers are drops, a cancelled or stopped
	// submission's are cancellations.
	p.drainByRun()
	// Reset the rotation cursors: a restarted Serve must behave like a
	// fresh pool, not inherit the previous session's submission-shard and
	// wake-scan positions (the Serve→Stop→Serve restartability regression
	// pins this).
	p.shardRR.Store(0)
	p.wakeRR.Store(0)
	if root != nil {
		if !p.workers[0].dq.PushBottom(root) {
			p.workers[0].handoff.Set(root)
		}
	}
	// Fork exactly the active prefix, normalizing the state words first: a
	// shrink in a previous session (or between sessions) may have left
	// suffix workers marked retiring without ever completing retirement —
	// their goroutines exited through the stopped flag instead. resizeMu
	// orders this against any concurrent Resize, and sessionLive re-arms
	// Resize's ability to start goroutines.
	p.resizeMu.Lock()
	fleet := int(p.fleet.Load())
	for i, w := range p.workers {
		if i < fleet {
			w.state.Store(workerActive)
		} else {
			w.state.Store(workerRetired)
		}
	}
	p.growCh = make(chan int)
	p.wg.Add(fleet + 1) // +1: the fleet manager holds a slot of its own
	for _, w := range p.workers[:fleet] {
		go w.loop()
	}
	// The fleet manager is the only place a worker loop is ever launched
	// mid-session (Resize feeds it slot indices over growCh). Keeping every
	// launch inside startSession's fork subtree preserves the lexical fork
	// edge that orders this function's plain writes before any worker
	// goroutine — including ones started long after, by a grow.
	go p.fleetManager(p.quitCh, p.growCh)
	p.sessionLive = true
	p.resizeMu.Unlock()
}

// endSession stops the worker loops and waits for them: stopped is the
// loop-exit condition, and the quit close wakes every parked or napping
// worker so none sleeps through shutdown.
func (p *Pool) endSession() {
	// Disarm Resize before waiting: once sessionLive drops, Resize no
	// longer feeds the fleet manager, and the manager itself holds a
	// WaitGroup slot until the quit close below retires it — so its
	// wg.Add(1) per grow can never race a Wait at zero (the classic
	// Add-after-Wait hazard).
	p.resizeMu.Lock()
	p.sessionLive = false
	p.resizeMu.Unlock()
	p.stopped.Store(true)
	close(p.quitCh)
	p.wg.Wait()
}

// drainByRun is the quiescent-phase sweep — run at the end of a cancelled
// session and again at the start of every session: it empties the injector shards,
// the deques, and the handoff slots, accounting every leftover task under
// the counter its submission's abort cause selects — TasksDropped for a
// panic, TasksCancelled for a cancellation or service stop. Leftovers can
// only belong to aborted submissions (a completed one has, by the scope
// invariant, no tasks left anywhere).
//
//abp:owner quiescent phase: every worker has exited before the sweep
func (p *Pool) drainByRun() {
	// Re-assert quiescence: every worker loop has exited (endSession ran
	// their deferred wg.Done), so this Wait returns immediately — and it
	// is the lexical join edge that orders the plain handoff writes below
	// against the dead worker goroutines for the static race detector.
	p.wg.Wait()
	account := func(t *Task) {
		if t.scope.run.state.Load() == runPanicked {
			p.dropped.Add(1)
		} else {
			p.cancelledN.Add(1)
		}
	}
	for _, q := range p.inject {
		for {
			t := q.TryPop()
			if t == nil {
				break
			}
			account(t)
		}
	}
	for _, w := range p.workers {
		for {
			t := w.dq.PopBottom()
			if t == nil {
				break
			}
			account(t)
		}
		if t := w.handoff.Get(); t != nil {
			w.handoff.Set(nil)
			account(t)
		}
		select {
		case <-w.parkCh:
		default:
		}
	}
}

// Stats sums the per-worker counters accumulated so far (across runs). It
// is safe to call concurrently with a running Run.
func (p *Pool) Stats() Stats {
	s := Stats{
		TasksDropped:     p.dropped.Load(),
		TasksCancelled:   p.cancelledN.Load(),
		StallsDetected:   p.stalls.Load(),
		Resizes:          p.resizes.Load(),
		WorkersRetired:   p.retiredN.Load(),
		Submitted:        p.submitted.Load(),
		SubmitsRejected:  p.rejected.Load(),
		SubmitsCallerRun: p.callerRuns.Load(),
		InjectorBacklog:  p.injectorBacklog(),
	}
	for _, w := range p.workers {
		if w.state.Load() == workerActive {
			s.ActiveWorkers++
		}
		s.TasksRun += w.tasksRun.Load()
		s.Spawns += w.spawns.Load()
		s.InlineRuns += w.inlineRuns.Load()
		s.Steals += w.steals.Load()
		s.StealAttempts += w.stealAttempts.Load()
		s.Yields += w.yields.Load()
		s.Parks += w.parks.Load()
		s.Wakes += w.wakes.Load()
		s.BackoffNanos += w.backoffNanos.Load()
	}
	return s
}

// injectorBacklog sums the momentary shard occupancy (an estimate, like
// every mid-flight Stats read).
func (p *Pool) injectorBacklog() int64 {
	var n int64
	for _, q := range p.inject {
		n += int64(q.Len())
	}
	return n
}

// stealOnce performs one steal attempt against a uniformly random victim
// (Figure 3 line 16). The steal counters are owner-only: this worker's
// goroutine is their sole writer.
//
//abp:owner steal counters belong to the stealing worker's own goroutine
//abp:nonblocking
func (w *Worker) stealOnce() *Task {
	// Victims are drawn from the active prefix [0, fleet): a retired slot's
	// deque is empty by the retire protocol, so aiming steals at it would
	// only waste attempts. A worker outside the prefix — retiring, or mid-
	// shrink — steals from all fleet actives; an active worker excludes
	// itself. The read races Resize harmlessly: a stale fleet at worst aims
	// one steal at an emptying (or freshly re-activated) deque.
	n := int(w.pool.fleet.Load())
	pick := n
	if w.id < n {
		pick = n - 1
	}
	if pick == 0 {
		return nil
	}
	v := w.rng.Intn(pick)
	if w.id < n && v >= w.id {
		v++
	}
	w.stealAttempts.Add(1)
	fault.Point(fpStealBeforePopTop)
	t := w.pool.workers[v].dq.PopTop()
	if t != nil {
		w.steals.Add(1)
	}
	return t
}

// execOrDrop runs a task unless its submission has aborted, in which case
// the task is discarded — never executed into a dead submission — and
// accounted under the abort cause's counter. This is the service-mode
// replacement for the old between-runs drain: tasks of interleaved
// submissions share the deques, so staleness is decided per task at pop
// time, not per pool at session boundaries. stolen says how the task
// reached this worker (see exec); a discarded task releases the scope it
// carries either way.
//
//abp:owner runs only on the goroutine that owns the worker (its loop, a helping Join on it, or the submitter for the ephemeral caller-runs worker)
func (w *Worker) execOrDrop(t *Task, stolen bool) {
	if s := t.scope.run.state.Load(); s != runLive {
		if s == runPanicked {
			w.pool.dropped.Add(1)
		} else {
			w.pool.cancelledN.Add(1)
		}
		w.progress.Add(1)
		t.scope.release() // a zero here is a no-op: the abort already finished the run
		return
	}
	w.exec(t, stolen)
}

// exec runs a task and performs termination accounting (scope.go). A task
// this worker popped from its own deque, or runs inline on a full one,
// runs in the scope it carries — the scope this worker was in when it
// spawned the task — as does a task from the injector, which carries a
// scope nobody runs in (a root's, or the one republish gave it). A stolen
// task runs in the scope split makes for it, so this worker's spawns and
// task ends count on a word only it writes, and the scope the task was
// spawned in hears from this worker once, when the child empties. A
// panicking task aborts its submission (and only it); the panic value
// surfaces from Run or from the submission's Handle.
//
//abp:owner exec runs only on the goroutine that owns the worker (its loop, or the submitter for the ephemeral caller-runs worker)
func (w *Worker) exec(t *Task, stolen bool) {
	s := t.scope
	if stolen {
		s = s.split()
	}
	prev := w.scope
	w.scope = s
	w.runTask(t)
	w.scope = prev
	w.tasksRun.Add(1)
	w.progress.Add(1)
	s.release()
}

// runTask invokes the task body under the per-task recover. A panic is
// swallowed here — recorded as the submission's abort cause — so exec's
// termination accounting above always runs and the worker loop survives
// the task.
func (w *Worker) runTask(t *Task) {
	defer func() {
		if rec := recover(); rec != nil {
			t.scope.run.abortWith(runPanicked, nil, rec)
		}
	}()
	fault.Point(fpExecBeforeRun)
	t.body.runTask(w)
}

// ID returns the worker's index in [0, Workers).
func (w *Worker) ID() int { return w.id }

// currentRun returns the run record of the task currently executing on
// this worker. Join and Group.Wait read it to watch their own
// submission's abort; like the deque, the scope field belongs to the
// goroutine running the worker (set and restored only by exec), which is
// exactly the goroutine those helpers document they must be called from.
//
//abp:owner only the goroutine running the worker reads its current scope
func (w *Worker) currentRun() *run { return w.scope.run }

// newTask returns a task with the given body that carries the scope of the
// task currently executing on this worker — what Fork, Group.Spawn and
// Spawn store in the record they allocate before handing it to spawn.
//
//abp:owner only the goroutine running the worker reads its current scope
func (w *Worker) newTask(body taskBody) Task { return Task{body: body, scope: w.scope} }

// Pool returns the owning pool.
func (w *Worker) Pool() *Pool { return w.pool }

// Spawn schedules fn to run asynchronously as part of the calling task's
// submission. It pushes the task onto the bottom of the caller's deque,
// where it is available to thieves, and wakes a parked worker if one
// exists; if the deque is full the task runs inline instead (correct, just
// not stealable).
func (w *Worker) Spawn(fn func(*Worker)) {
	t := w.newTask(taskFunc(fn))
	w.spawn(&t)
}

// spawn publishes a task made by newTask: it counts the task in the scope
// it carries, the spawner's — a word no other worker writes between steals
// — and pushes it. The handshake directive makes abplint verify the
// producer half of the Dekker protocol: the push (PushBottom's internal
// atomic store) must dominate the signalWork scan of the parked flags.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns w.dq
//abp:handshake store=PushBottom load=signalWork
func (w *Worker) spawn(t *Task) {
	w.spawns.Add(1)
	t.scope.refs.Add(1)
	if !w.dq.PushBottom(t) {
		w.inlineRuns.Add(1)
		w.exec(t, false)
		return
	}
	w.pool.signalWork()
}

// tryGetTask pops local work, or failing that makes one steal attempt;
// stolen reports which. Used by Future.Join and Group.Wait to make
// progress while waiting.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns w.dq
func (w *Worker) tryGetTask() (t *Task, stolen bool) {
	if t := w.dq.PopBottom(); t != nil {
		return t, false
	}
	return w.stealOnce(), true
}

// anyVisibleWork reports whether any injector shard or deque in the pool
// appears non-empty. A false return together with an incomplete future
// means the future's task is currently running on some worker, so blocking
// is safe. The parking protocol relies on the same property: see park in
// lifecycle.go and the memory-ordering notes on deque.Dequer.Len and
// injector.Len.
func (w *Worker) anyVisibleWork() bool {
	for _, q := range w.pool.inject {
		if q.Len() > 0 {
			return true
		}
	}
	for _, o := range w.pool.workers {
		if o.dq.Len() > 0 {
			return true
		}
	}
	return false
}
