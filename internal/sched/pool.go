// Package sched is the production side of the reproduction: a work-stealing
// task scheduler for Go built on the paper's non-blocking ABP deque
// (package deque). Each worker is one of the paper's "processes": it owns a
// deque, pops work from the bottom, and when idle yields the processor and
// steals from the top of a uniformly random victim's deque — exactly the
// Figure 3 scheduling loop, with Go's runtime playing the kernel. Unlike
// Figure 3, an idle worker does not spin forever: after repeated failed
// steals it parks, and Spawn wakes it when stealable work
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
// record (the Future is the task) that Join2, Reduce, ParallelFor, Spawn
// and Group.Spawn take from and return to a free list of the worker's own
// — Reduce's and ParallelFor's a range record that holds the right half's
// arguments, so the library's own forks allocate nothing. A public spawn
// is one push, one pop, and one count in the spawner's scope; the
// library's own forks go to a private region beneath the worker's deque
// while the deque holds older work, uncounted and unfenced, until a thief
// asks for them (lazy.go). A fork its joiner pops back is a plain call
// (Join) whose counts stay in plain fields of the worker's own until its
// joiner's task ends, and whose scope release, if it owes one, is that
// task's.
// The count of un-ended tasks that ends a run is kept in scopes split at
// steals (scope.go), so workers meet where the paper's processes do — at
// steals.
//
// The dag runner (RunGraph — graphrun.go), which executes an explicit
// computation dag with known work and critical-path length for the
// experiments that check the paper's T1/P_A + Tinf*P/P_A bound on real
// hardware, is a client of the task API: a node that enables two children
// continues into one and Spawns the other.
//
// A ParkThreshold that is never reached gives the pure spinning loop of
// Figure 3. Every worker's deque is the ABP deque; this package's tests
// swap in the mutex-guarded reference deque (the negative control of the
// non-blocking claim) and the unbounded Chase–Lev deque through the same
// Worker.dq seam, which is the only reason it is an interface.
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

// Failpoints compiled into the scheduler (internal/fault; DESIGN.md §7,
// "Fault injection").
// sched.loop.beforeSteal fires only for loop-level steals (never for a
// Join helping itself to work), so a chaos run can freeze thieves without
// ever freezing the joiner that must later resume them.
var (
	fpLoopEnter = fault.Register("sched.loop.enter",
		"worker loop: before the first pop (a crash here strands the root where startSession put it)")
	fpLoopBeforeSteal = fault.Register("sched.loop.beforeSteal",
		"worker loop: idle — deque and injector empty — and yielded, about to attempt a steal (loop-level steals only)")
	fpStealBeforePopTop = fault.Register("sched.steal.beforePopTop",
		"stealOnce: victim chosen, PopTop not yet issued (any steal, including Join helps)")
	fpExecBeforeRun = fault.Register("sched.exec.beforeRun",
		"exec: termination accounting armed, task function not yet entered")
	fpParkBeforeRecheck = fault.Register("sched.park.beforeRecheck",
		"park: idle status and count published, the re-check for work not yet made")
	fpParkBeforeSleep = fault.Register("sched.park.beforeSleep",
		"park: idle status published and re-check passed, not yet blocked on the token channel")
	fpRunAfterClaim = fault.Register("sched.run.afterClaim",
		"run.finish: the claim CAS on end won, the Handle's word not yet ended (only the winner gets here)")
	fpRunBeforeWake = fault.Register("sched.run.beforeWake",
		"run.finish: the state stored, the Handle's word not yet ended and no abort token sent (only the winner gets here)")
)

// Config configures a Pool.
type Config struct {
	// Workers is the number of worker goroutines (the paper's P processes).
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// MaxWorkers caps Pool.Resize growth (resize.go): worker structures —
	// deque, rng, sleep — are pre-allocated up to this bound at New
	// time, and a session holds one goroutine per slot, MaxWorkers of them,
	// the retired ones asleep: a mid-Serve grow is a store and a wake. Slots
	// in [Workers, MaxWorkers) begin retired. 0 defaults to Workers (a fixed
	// fleet, exactly the pre-elastic behavior); values below Workers panic.
	MaxWorkers int
	// DequeCapacity bounds each worker's deque; when a push finds the deque
	// full the task runs inline, which preserves correctness and depth-first
	// order at the cost of stealable parallelism. Defaults to
	// deque.DefaultCapacity.
	DequeCapacity int
	// InjectorCapacity bounds the injector, the MPMC ring external
	// submissions (Pool.Submit) enter through (rounded up to a power of
	// two, minimum 2); a submission finding it full is rejected with
	// ErrOverloaded. This is the service mode's admission-control knob.
	// Defaults to 1024.
	InjectorCapacity int
	// ParkThreshold is the number of consecutive failed steal attempts
	// after which an idle worker parks (lifecycle.go). 0 means the
	// default, max(8, 2*Workers), enough hot rounds that a random thief
	// has touched most victims before giving up.
	// math.MaxInt is never reached, so it is the paper's pure spinning loop
	// — yield and steal forever, no park — at a full core per idle
	// worker.
	ParkThreshold int
	// Seed seeds victim selection; 0 means a fixed default.
	Seed int64
	// StallTimeout enables the stall watchdog (watchdog.go): a worker
	// goroutine that makes no scheduler-visible progress for this window
	// while running is surfaced via OnStall and Stats.StallsDetected
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
// abort. No Task is allocated by itself: Future, groupTask and the run
// record each hold theirs inline (and the first two are its body), so a
// fork or a spawn is one record, and a recycled one where the record never
// reaches user code.
type Task struct {
	body  taskBody
	scope *scope
}

// taskBody is what a task runs. The two pointer-shaped implementations —
// a record that holds its Task inline (Future, groupTask) and taskFunc —
// convert to the interface without allocating.
type taskBody interface{ runTask(w *Worker) }

// taskFunc is the body of a task that is just a function: a submission's
// root.
type taskFunc func(*Worker)

func (fn taskFunc) runTask(w *Worker) { fn(w) }

// Pool is a work-stealing scheduler instance. Create one with New, then
// either use the batch API — Run or RunContext, possibly several times in
// sequence — or start the service engine with Serve and feed it with
// Submit from any goroutine (serve.go). Either way the pool hosts one
// session at a time: the workers, from startSession to endSession. What is
// true of the session that is live right now is phase, the one word that
// says how far it has got, and the fields that say whether it was asked to
// stop (gen, stopped, cause); everything else here outlives sessions.
// Overlapping Run/RunContext/Serve calls fail the entry CAS on phase and
// panic with a clear error rather than corrupting the session.
type Pool struct {
	cfg     Config // New's argument with every default filled in
	workers []*Worker
	inject  *injector
	// Ordering disciplines (internal/atomicx, checked by abporder): the
	// SC-declared fields either arbitrate (phase's entry and drain CASes)
	// or participate in the park/wake handshake (phase and idle are read or
	// written inside //abp:handshake carrier functions, whose store→load
	// shape needs the full ordering). The Publish-declared counters are
	// blind increments read only by Stats and the watchdog —
	// release/acquire publication suffices.
	//
	// Layout discipline (layout_test.go pins it): the word written often —
	// idle, the park/signal Dekker pair's — and the words every worker
	// reads on every loop iteration and steal — phase, fleet — each sit on
	// a cache line of their own, so a read-mostly word is never invalidated
	// by the written one or by the counters; the blindly incremented
	// counters may share lines freely among themselves.
	//
	// phase is the session's state (the phase constants below): written
	// only at a session's few transitions, read by the worker loop's exit
	// test, park's re-check, and Submit's gate and post-push re-check.
	phase atomicx.SCUint32
	_     atomicx.CacheLinePad
	idle  atomicx.SCInt32 // workers parked or on the way in or out of park (lifecycle.go)
	_     atomicx.CacheLinePad
	// fleet bounds the victim range: stealOnce draws from workers
	// [0, fleet), and every non-empty deque is inside it (resize.go has the
	// invariant). Written rarely — under resizeMu, raised by a grow and
	// lowered by trimVictims — and read on every steal attempt.
	// publish: readers only gate victim ranges on the value; the per-worker
	// state words (CAS'd, sc) carry the retire arbitration.
	fleet      atomicx.Publish32
	_          atomicx.CacheLinePad
	dropped    atomicx.Publish64 // tasks the sweep discarded after a panic-aborted submission
	cancelledN atomicx.Publish64 // tasks the sweep discarded of a cancelled/stopped submission
	stalls     atomicx.Publish64 // stall episodes surfaced by the watchdog
	resizes    atomicx.Publish64 // Resize calls that changed the fleet target
	retiredN   atomicx.Publish64 // workers that completed retirement (resize.go)
	submitted  atomicx.SCInt64   // submissions accepted onto the injector
	rejected   atomicx.Publish64 // submissions turned away after the gate (Stats.SubmitsRejected)
	wg         sync.WaitGroup    // the session's goroutines: one per worker slot, and the watchdog

	// resizeMu serializes Resize calls against each other, against a session
	// start and against a retiring worker's trimVictims (resize.go). target,
	// which it guards, is the fleet size Resize was last asked for (New:
	// Config.Workers): what startSession starts running, and the floor of
	// fleet.
	resizeMu sync.Mutex
	target   int

	// Active-submission registry: every in-flight run, linked in at
	// submission and unlinked by the finish that claims its end — active is
	// the head of a list threaded through the records (run.prev, run.next).
	// endSession aborts the whole set, and a Drain waits for the ones it
	// found there (inFlight).
	runMu  sync.Mutex
	active *run

	// Also under runMu: gen numbers the sessions startSession has begun,
	// and stopped and cause say whether session gen was asked to stop, and
	// with what (stopWith). The session's own goroutines read gen without
	// the lock: the go statements that start them come after the write,
	// and the next write after endSession has joined them.
	gen     uint64
	stopped bool
	cause   any
	// The controller's sleep — its number stays 0, and the sweep drops its
	// stale token — which stopWith and a Run's end wake, and the watchdog's
	// token channel, endSession's.
	ctl   *sleep
	dogCh chan struct{}
	// batch is the Handle of a Run's submission, the pool's own: RunContext
	// resets it and endSession reads its outcome before the phase is idle.
	batch Handle
}

// The session phases, stored in Pool.phase:
//
//	idle → batch ─────────────────────────→ stopping → idle   (Run, RunContext)
//	idle → batch → serving [→ draining] ──→ stopping → idle   (Serve)
//
// Every edge has one writer. idle → batch is the entry CAS (enter), the
// overlapping-Run/Serve check. batch → serving is Serve's store once its
// workers exist; serving → draining is the winning Drain's CAS (drain.go);
// the edges into and out of stopping are endSession's two stores. Submit
// admits in serving only, the worker loop and park leave on stopping, and
// nothing else branches on the word.
const (
	phaseIdle     uint32 = iota // no session: Run, RunContext or Serve may enter
	phaseBatch                  // workers may run, admission closed: a Run throughout, a Serve while it starts
	phaseServing                // Submit admits
	phaseDraining               // a Drain closed admission; what was accepted is finishing
	phaseStopping               // endSession: workers exit, in-flight submissions abort
)

// stopWith asks the controller of session gen to bring it down, unless
// that session has ended or was asked already: a later cause is dropped, as
// a run's later abort is (finish). cause is the panic value of what failed
// — a worker loop (engineFail), a task of a Run — or nil: a Drain's stop.
func (p *Pool) stopWith(gen uint64, cause any) {
	p.runMu.Lock()
	if gen == p.gen && !p.stopped {
		p.stopped, p.cause = true, cause
		p.ctl.wake(0)
	}
	p.runMu.Unlock()
}

// The worker statuses, stored in Worker.status — the one word that says
// whether a worker may be woken, may fall asleep, and counts as a member of
// the fleet:
//
//	running ⇄ idle              the worker: park's entry and exit CAS
//	running | idle → retiring   Resize shrinking, by CAS (and a token if idle)
//	retiring → running          Resize growing back before the worker got there, by CAS
//	retiring → retired          the worker, by CAS, its deque drained (retire)
//	retired → running           Resize growing: a store and a token, the slot's goroutine is asleep
//
// Only an idle worker is a wake target (signalWork), and only a running
// one can become idle: park's entry CAS fails against a retire mark, so a
// marked worker cannot fall asleep, and one marked in its sleep is woken by
// the Resize that marked it. A retired worker sleeps too (sleepRetired), but
// as nobody's wake target. Running and idle are the fleet's members
// (Stats.ActiveWorkers). workerRunning is the zero value, so New's workers
// start running. Between sessions no goroutine holds a slot, and
// startSession stores every word afresh from the target.
const (
	workerRunning uint32 = iota
	workerIdle
	workerRetiring
	workerRetired
)

// Worker is the execution context passed to every task; it identifies the
// worker goroutine running the task and provides the spawning operations.
type Worker struct {
	// What only the goroutine running the worker touches, with plain
	// accesses — on the block's first line, what a popped-back fork writes:
	// exec stores scope and folded twice a task, a fork counts itself in
	// spawnsDue, a call in runsDue and folded, and a fork or a spawn and its
	// join or run move a free list's depth.
	scope *scope // termination scope of the task currently executing (exec)
	// nFutures, nRanges, nGroupTasks and nGroupRecs are the depths of the
	// stacks of records this worker may reuse (takeFuture, takeRange,
	// spawnMember, Group.Spawn; DESIGN.md §7): futures below nFutures are
	// Join2's Futures of one result type and ranges below nRanges are
	// Reduce's and ParallelFor's range records of one result type — each
	// held as any, the Worker not being generic — groupTasks below
	// nGroupTasks are spawned tasks, and groupRecs below nGroupRecs are the
	// generations of Groups whose Wait ended here.
	nFutures, nRanges, nGroupTasks, nGroupRecs int32
	// spawnsDue and runsDue are the spawns and popped-back calls not yet
	// added to spawns and tasksRun (flush); folded is the calls
	// whose scope release the exec in flight makes for them (popBack).
	spawnsDue, runsDue, folded int64
	// The private region (DESIGN.md §7, "Lazy exposure"): the engine forks
	// in lazy at sequence numbers [lazyHead, lazyTail), oldest first, are
	// the bottom of this worker's deque, uncounted in their scopes and out
	// of every thief's reach until publish pushes them; dq's Room bounds
	// them (fork), so a publish never finds the deque full.
	lazyHead, lazyTail uint32
	lazy               [lazyK]*Task
	futures            [maxFreeRecords]any
	ranges             [maxFreeRecords]any
	groupTasks         [maxFreeRecords]*groupTask
	groupRecs          [maxFreeRecords]*groupRec
	// scopes below nScopes are child scopes this worker emptied, for its
	// next split to reuse (scope.go). Only a steal moves the depth, so it is
	// off the first line.
	nScopes int32
	scopes  [maxFreeRecords]*scope

	// Per-worker counters, summed by Pool.Stats; five are also the stall
	// watchdog's motion (watchdog.go). Atomics so Stats is safe to call
	// while the run is in flight. The Publish-declared ones are owner-only
	// blind increments; the SC-declared ones are updated inside
	// //abp:handshake carrier functions (spawn, park), which abporder pins
	// to full ordering.
	tasksRun           atomicx.Publish64
	spawns             atomicx.Publish64
	inlineRuns         atomicx.SCInt64
	steals             atomicx.Publish64
	stealAttempts      atomicx.Publish64
	yields             atomicx.Publish64
	parks              atomicx.SCInt64
	wakes              atomicx.SCInt64
	dropped, cancelled atomicx.Publish64 // its discards (discard); the sweep's are the pool's

	// status (the constants above) is park's half of the wake handshake
	// (//abp:handshake store=status load=anyVisibleWork) and the word
	// Resize and the worker arbitrate retirement on, hence sc. Every
	// producer's signalWork scans it, so it has a cache line to itself:
	// neither the owner-hot block above nor the wiring below, which every
	// thief reads, may share the line the whole pool polls. sleep, the
	// worker's one way to block (lifecycle.go), has its own line: every
	// waker reads its number and channel, and only its sleeps write it.
	_      atomicx.CacheLinePad
	status atomicx.SCUint32
	_      atomicx.CacheLinePad
	sleep  sleep
	_      atomicx.CacheLinePad
	// wantWork is a thief's request that the owner publish its region: set
	// by a steal that missed this worker's empty public part, read by the
	// owner at every fork and pop-back while its region holds forks, and
	// cleared by the owner's expose (lazy.go). Thieves write it and the
	// owner polls it, so it has a line of its own. publish: the request
	// asks for work and orders nothing; a lost race costs the thief one
	// more miss.
	wantWork atomicx.Publish32
	_        atomicx.CacheLinePad

	// The wiring: set by New and only read afterwards. Every thief's
	// stealOnce and every deque scan comes through this line for dq.
	pool   *Pool
	id     int
	dq     deque.Dequer[Task]
	rng    *rand.Rand // victim selection (stealOnce)
	loopFn func()     // loop as a method value, so startSession's go statement allocates nothing
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
	p := &Pool{
		cfg:    cfg,
		inject: newInjector(cfg.InjectorCapacity),
		ctl:    &sleep{ch: make(chan uint32, 1)},
		dogCh:  make(chan struct{}, 1),
	}
	p.ctl.join.s = p.ctl
	if cfg.ParkThreshold == 0 {
		// The one default a worker goroutine reads, so it is written through
		// p, which nothing shares yet (abprace's fresh-object rule).
		p.cfg.ParkThreshold = max(8, 2*cfg.Workers)
	}
	// The whole [0, MaxWorkers) fleet is allocated up front; slots beyond
	// the initial Workers begin retired and cost a sleeping goroutine per
	// session until a Resize activates them.
	for i := 0; i < cfg.MaxWorkers; i++ {
		w := &Worker{
			pool:  p,
			id:    i,
			dq:    deque.NewWithCapacity[Task](cfg.DequeCapacity),
			rng:   rand.New(rand.NewSource(seed + int64(i)*1_000_003)),
			sleep: sleep{ch: make(chan uint32, 1)},
		}
		w.sleep.join.s = &w.sleep
		w.loopFn = w.loop
		if i >= cfg.Workers {
			w.status.Store(workerRetired)
		}
		p.workers = append(p.workers, w)
	}
	p.target = cfg.Workers
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
// Run and RunContext are one-submission sessions of the service engine
// (serve.go): the controller below is Serve's with another event to wait
// for, so the batch tests and chaos suite exercise the engine Submit feeds.
func (p *Pool) RunContext(ctx context.Context, root func(*Worker)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.enter("Run/RunContext")
	h := &p.batch
	h.done.p.Store(nil)
	r := newRun(p, root, h)
	p.register(r)
	if err := ctx.Err(); err != nil {
		// Already cancelled: abort before any worker starts, so the root
		// is discarded (and counted) rather than executed.
		r.finish(runCancelled, err)
	} else {
		r.watch(ctx)
	}
	p.startSession(&r.root)
	r.let() // the caller's hold: from here on it reads only the Handle
	// The run ends — every task executed, or the submission aborted by a
	// panic or a cancellation — or a worker loop dies (engineFail), and the
	// session comes down: by then the run has ended, if only by endSession's
	// abort. Both send the controller's token, the run's end through the
	// Handle's word. A task panic stops the session as a failed loop does,
	// so that endSession re-raises it; whenever the run ended in a panic,
	// the session's cause is one, so only a run that did not gets to return.
	if h.done.p.CompareAndSwap(nil, &p.ctl.join) {
		<-p.ctl.ch
	}
	if pe, ok := h.Err().(PanicError); ok {
		p.stopWith(p.gen, pe.Value)
	}
	return p.endSession()
}

// enter claims the pool for a new session: the CAS out of idle that only
// one of any overlapping Run, RunContext and Serve calls can win.
func (p *Pool) enter(api string) {
	if !p.phase.CompareAndSwap(phaseIdle, phaseBatch) {
		panic("sched: Pool." + api + " called concurrently with a run or serve already in flight on this pool (a Pool hosts one session at a time)")
	}
}

// startSession numbers the session, sweeps what raced the previous
// session's stop (a Submit that pushed after the end sweep), so stale work
// can neither execute in the new session nor corrupt its accounting,
// delivers the batch API's root (if any), and forks the session's
// goroutines. The victim rng deliberately is not reset: random victim
// selection is the paper's stochastic model, and reseeding it would only
// launder scheduling nondeterminism into false reproducibility.
//
// Sweep, root delivery, and fork deliberately share one function body: the
// caller has won enter and no workers exist yet, so the calling goroutine
// is a legitimate owner for every deque, and every plain write here is
// ordered against the worker goroutines by the lexical fork edge of the go
// statements below — the ordering the static race detector checks.
//
// The root, when non-nil, goes to worker 0 while the pool is still
// quiescent — the batch API's fast path, bypassing the injector the way
// the paper hands the root thread to process zero before the loop starts.
// A swept deque of the stock kinds cannot refuse it, but a refusal must not
// be silently dropped (it would strand the submission's root scope at 1):
// the root goes through the injector the sweep has just emptied instead,
// like a submission's.
//
//abp:owner quiescent phase: workers have not been started yet
func (p *Pool) startSession(root *Task) {
	p.drainByRun()
	if root != nil && !p.workers[0].dq.PushBottom(root) && !p.offer(root) {
		panic("sched: a swept deque and the swept injector both refused the root")
	}
	p.runMu.Lock()
	p.gen++
	p.stopped, p.cause = false, nil
	p.runMu.Unlock()
	// Store every status word and the victim range afresh from the target
	// and fork one loop per slot, all under resizeMu: a concurrent Resize
	// comes wholly before (its target is the one started here) or wholly
	// after (it finds the goroutines it wakes). The words need the store: a
	// shrink the previous session did not live to complete — or one made
	// between sessions — left its suffix retiring. Every goroutine of the
	// session holds a slot of wg and leaves on a token of endSession's.
	p.resizeMu.Lock()
	for i, w := range p.workers {
		if i < p.target {
			w.status.Store(workerRunning)
		} else {
			w.status.Store(workerRetired)
		}
	}
	p.fleet.Store(int32(p.target))
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		go w.loopFn()
	}
	if p.cfg.StallTimeout > 0 {
		p.wg.Add(1)
		go p.watchdog()
	}
	p.resizeMu.Unlock()
}

// endSession is the one teardown: it marks the session stopped — which is
// also what lets it read the cause — closes admission and tells the
// workers to leave (the stopping phase), aborts whatever is still in flight
// — with the cause if the session is ending in a panic, else ErrStopped;
// first abort wins, so a cause a run recorded earlier is preserved, and
// after a Run or a completed Drain the set is already empty — leaves a
// token for every slot and the watchdog, after the store of stopping that a
// sleeper it wakes must read, joins the session's goroutines, sweeps, and
// returns the pool to idle. A non-nil cause — a task panic of a Run, a
// worker-loop failure of either API — is re-raised once the pool is
// reusable; else endSession returns the batch Handle's outcome, a Run's.
// This is the only place the registry is aborted.
//
// The sweep rule: every session ends swept — the deques and the injector
// hold nothing when the pool is idle, but for what a Submit that lost its
// race with the stop pushes afterwards, which startSession's sweep is for.
func (p *Pool) endSession() error {
	p.runMu.Lock()
	p.stopped = true
	cause := p.cause
	p.phase.Store(phaseStopping)
	rs := p.inFlight()
	p.runMu.Unlock()
	state, err := runCancelled, error(ErrStopped)
	if cause != nil {
		state, err = runPanicked, PanicError{Value: cause}
	}
	for _, r := range rs {
		r.finish(state, err)
		r.let()
	}
	// A Run's controller that a stop woke before its run ended waits here
	// for the batch Handle's word to end: some finish has claimed the run by
	// now — this abort, or one that had already unregistered it — but a
	// claim's winner may still be on its way to the word, which the next Run
	// resets. The winner's Swap comes before its token.
	for p.batch.done.p.Load() == &p.ctl.join {
		<-p.ctl.ch
	}
	for _, w := range p.workers {
		w.sleep.wake(0)
	}
	if p.cfg.StallTimeout > 0 {
		p.dogCh <- struct{}{} // the watchdog's one token: empty since the last session's took it
	}
	p.wg.Wait()
	for _, w := range p.workers {
		w.dropRegion()
	}
	p.drainByRun()
	batch := p.batch.Err()
	p.phase.Store(phaseIdle)
	if cause != nil {
		panic(cause)
	}
	return batch
}

// drainByRun is the quiescent-phase sweep (endSession states the rule): it
// empties the injector and the deques, accounting every leftover task under
// the counter its submission's abort cause selects — TasksDropped for a
// panic, TasksCancelled for a cancellation or service stop. Leftovers can
// only belong to aborted submissions (a completed one has, by the scope
// invariant, no tasks left anywhere); the one a Submit pushed so late that
// no abort sweep saw its run is aborted here, so its Handle reports
// ErrStopped instead of waiting on a task nobody holds. It also drops the
// controller's token, if one is left behind.
//
//abp:owner quiescent phase: every worker has exited before the sweep
func (p *Pool) drainByRun() {
	for t := p.inject.TryPop(); t != nil; t = p.inject.TryPop() {
		p.account(t)
	}
	for _, w := range p.workers {
		for t := w.dq.PopBottom(); t != nil; t = w.dq.PopBottom() {
			p.account(t)
		}
	}
	select {
	case <-p.ctl.ch:
	default:
	}
}

// account counts a task the sweep found under its run's abort, aborting
// the run first if nothing has. The counter is the outcome's, which the
// claim settled — a lost claim returns before the winner stores state —
// and a panic's is the only PanicError.
func (p *Pool) account(t *Task) {
	r := t.scope.run
	r.finish(runCancelled, ErrStopped)
	if _, ok := r.outcome().(PanicError); ok {
		p.dropped.Add(1)
	} else {
		p.cancelledN.Add(1)
	}
}

// Stats sums the per-worker counters accumulated so far (across runs). It
// is safe to call concurrently with a running Run.
func (p *Pool) Stats() Stats {
	s := Stats{
		TasksDropped:    p.dropped.Load(),
		TasksCancelled:  p.cancelledN.Load(),
		StallsDetected:  p.stalls.Load(),
		Resizes:         p.resizes.Load(),
		WorkersRetired:  p.retiredN.Load(),
		Submitted:       p.submitted.Load(),
		SubmitsRejected: p.rejected.Load(),
		InjectorBacklog: int64(p.inject.Len()), // momentary, like every mid-flight Stats read
	}
	for _, w := range p.workers {
		if st := w.status.Load(); st == workerRunning || st == workerIdle {
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
		s.TasksDropped += w.dropped.Load()
		s.TasksCancelled += w.cancelled.Load()
	}
	return s
}

// stealOnce performs one steal attempt against a uniformly random victim
// (Figure 3 line 16). The steal counters are owner-only: this worker's
// goroutine is their sole writer.
//
//abp:owner steal counters belong to the stealing worker's own goroutine
//abp:nonblocking
func (w *Worker) stealOnce() *Task {
	// Victims are drawn from [0, fleet), which holds every deque that may
	// hold work (resize.go): a retiring worker's is not empty until it has
	// retired, so the range keeps it; a retired slot's is, so aiming steals
	// at it would only waste attempts. A worker that steals is inside the
	// range — fleet drops only past a retired slot, and only the slot's own
	// goroutine retires it, at its loop top — and excludes itself.
	// The read races Resize harmlessly: a stale fleet at worst aims one
	// steal at an empty (or freshly re-activated) deque.
	n := int(w.pool.fleet.Load()) - 1
	if n <= 0 {
		return nil
	}
	v := w.rng.Intn(n)
	if v >= w.id {
		v++
	}
	w.stealAttempts.Add(1)
	fault.Point(fpStealBeforePopTop)
	o := w.pool.workers[v]
	t := o.dq.PopTop()
	if t != nil {
		w.steals.Add(1)
	} else if o.dq.Len() == 0 && o.wantWork.Load() == 0 {
		o.wantWork.Store(1) // the public part is empty: ask for the region (lazy.go)
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
// carries either way. Every task start but Future.call's comes through
// here — a pop, a steal, an injector poll, and the inline run of a spawn no
// deque took — and the return says whether the task ran.
//
//abp:owner runs only on the goroutine that owns the worker (its loop, or a helping Join on it)
func (w *Worker) execOrDrop(t *Task, stolen bool) (ran bool) {
	if st := t.scope.run.state.Load(); st != runLive {
		w.discard(st)
		w.release(t.scope, 1) // a zero at the root is a no-op: the abort already finished the run
		return false
	}
	w.exec(t, stolen)
	return true
}

// discard counts a task that an abort, whose run state is st, keeps from
// starting, under the counter the abort's cause selects.
//
//abp:owner the discard counters are written only by the goroutine running the worker
func (w *Worker) discard(st int32) {
	if st == runPanicked {
		w.dropped.Add(1)
	} else {
		w.cancelled.Add(1)
	}
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
// The task's end, returned or panicked, is one release of s that also ends
// the calls folded into it (Future.call), after the flush that publishes
// every count: any release that can complete a run is an exec's, so a
// run's counts are in Stats before it completes. folded is saved and reset
// around the task like w.scope, since a Join's help runs tasks of other
// scopes under it.
//
//abp:owner exec runs only on the goroutine that owns the worker
func (w *Worker) exec(t *Task, stolen bool) {
	s := t.scope
	if stolen {
		s = w.split(s)
	}
	prev, prevFolded := w.scope, w.folded
	w.scope, w.folded = s, 0
	w.runTask(t)
	// Every exec ends with the region empty: what the task left unjoined
	// when it unwound, and in an exec nested under a Join's help or popBack
	// any outer frame's forks still there (only unstructured code leaves
	// them), are published here, at an Add and a signalWork each.
	if w.lazyTail != w.lazyHead {
		w.publish(w.lazyTail - w.lazyHead)
	}
	k := w.folded
	w.scope, w.folded = prev, prevFolded
	w.runsDue++
	w.flush()
	w.release(s, 1+k)
}

// flush adds the counts kept in w's owner block to the atomics Stats reads.
//
//abp:owner the counters are written only by the goroutine running the worker
func (w *Worker) flush() {
	if w.spawnsDue != 0 {
		w.spawns.Add(w.spawnsDue)
		w.spawnsDue = 0
	}
	w.tasksRun.Add(w.runsDue)
	w.runsDue = 0
}

// runTask invokes the task body under the per-task recover. A panic is
// swallowed here — recorded as the submission's abort cause — so exec's
// termination accounting above always runs and the worker loop survives
// the task.
func (w *Worker) runTask(t *Task) {
	defer func() {
		if rec := recover(); rec != nil {
			t.scope.run.finish(runPanicked, PanicError{Value: rec})
		}
	}()
	fault.Point(fpExecBeforeRun)
	t.body.runTask(w)
}

// ID returns the worker's index in [0, MaxWorkers).
func (w *Worker) ID() int { return w.id }

// currentRun returns the run record of the task currently executing on
// this worker. Join and Group.Wait read it to watch their own
// submission's abort; like the deque, the scope field belongs to the
// goroutine running the worker (set and restored only by exec), which is
// exactly the goroutine those helpers document they must be called from.
//
//abp:owner only the goroutine running the worker reads its current scope
func (w *Worker) currentRun() *run { return w.scope.run }

// bind makes t a task with the given body that carries the scope of the
// task currently executing on this worker — what Spawn, a fork and
// Group.Spawn do before handing t to spawn. A recycled record's Task is
// written only if it is new or was bound in another scope: its body is the
// record itself.
//
//abp:owner only the goroutine running the worker reads its current scope
func (w *Worker) bind(t *Task, body taskBody) {
	if t.body == nil || t.scope != w.scope {
		*t = Task{body: body, scope: w.scope}
	}
}

// Pool returns the owning pool.
func (w *Worker) Pool() *Pool { return w.pool }

// Spawn schedules fn to run asynchronously as part of the calling task's
// submission. It pushes the task onto the bottom of the caller's deque,
// where it is available to thieves, and wakes a parked worker if one
// exists; if the deque is full the task runs inline instead (correct, just
// not stealable).
func (w *Worker) Spawn(fn func(*Worker)) { w.spawnMember(nil, fn) }

// spawnMember spawns fn on a record from w's free list (group.go), as a
// member of the group whose generation is g, or of no group when g is nil.
func (w *Worker) spawnMember(g *groupRec, fn func(*Worker)) {
	t := popFree(&w.groupTasks, &w.nGroupTasks)
	if t == nil {
		t = new(groupTask)
	}
	t.g, t.fn = g, fn
	w.bind(&t.task, t)
	w.post(&t.task)
}

// spawn publishes a task made by bind (post), or a private fork (publish):
// it counts the task in the scope it carries, the spawner's — a word no
// other worker writes between steals — and pushes it. The handshake
// directive makes abplint verify the producer half of the Dekker protocol:
// the push (PushBottom's internal atomic store) must dominate the
// signalWork scan of the status words.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns w.dq
//abp:handshake store=PushBottom load=signalWork
func (w *Worker) spawn(t *Task) {
	t.scope.refs.Add(1)
	if !w.dq.PushBottom(t) {
		if w.execOrDrop(t, false) {
			w.inlineRuns.Add(1)
		}
		return
	}
	w.pool.signalWork()
}

// help is one round of the loop Future.Join and Group.Wait run while what
// they wait for is pending; r is the waiter's own submission, and the
// return says whether the waiter may now block. A waiter is a task of r, so
// r cannot complete under it: once r has ended it has aborted, and the
// state word every task start already loads (execOrDrop) is the whole test
// — made between helped tasks, so a deep backlog is not drained first, and
// after a block, whose wake through r's completion word follows the store
// of state (finish). Otherwise the waiter runs its deque's bottom or one
// steal, which may be a task of another submission (execOrDrop and exec
// account for it by the task's own scope), and blocks once no deque holds
// work (settle).
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns w.dq
func (w *Worker) help(r *run) (mayBlock bool) {
	if r.aborted() {
		r.panicAborted()
	}
	t, stolen := w.takePrivate(), false
	if t == nil {
		t = w.dq.PopBottom()
	}
	if t == nil {
		t, stolen = w.stealOnce(), true
	}
	if t != nil {
		w.execOrDrop(t, stolen)
		return false
	}
	return w.settle()
}

// popBack pops w's deque bottom — the region's newest fork, if it holds
// one — for a joiner: true if it was t, for the joiner to call (DESIGN.md
// §7, "Work-first join"); anything else starts here. A private t was never
// counted, so its call has nothing to release; a public one is counted in
// the scope w runs in, and its release is folded into that of the exec w
// runs under, whose own task, counted in the same scope until then, keeps
// this one from ever emptying it.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns w.dq
func (w *Worker) popBack(t *Task) bool {
	if w.lazyTail != w.lazyHead && w.wantWork.Load() != 0 {
		w.expose()
	}
	if w.lazyTail != w.lazyHead {
		if w.lazy[(w.lazyTail-1)%lazyK] == t {
			w.lazyTail--
			return true
		}
		w.execOrDrop(w.takePrivate(), false)
		return false
	}
	b := w.dq.PopBottom()
	mine := b == t && t.scope == w.scope
	if mine {
		w.folded++
	} else if b != nil {
		w.execOrDrop(b, false)
	}
	return mine
}

// anyStealableWork reports whether any deque in the pool appears non-empty:
// the work help can reach. A false return together with an incomplete
// future means the future's task is currently running on some worker, so
// blocking is safe (see the memory-ordering notes on deque.Dequer.Len).
func (w *Worker) anyStealableWork() bool {
	for _, o := range w.pool.workers {
		if o.dq.Len() > 0 {
			return true
		}
	}
	return false
}

// anyVisibleWork is what a worker loop can reach — the injector, which only
// loops pop, as well as the deques — and so park's re-check (lifecycle.go;
// injector.Len has the ordering notes).
func (w *Worker) anyVisibleWork() bool {
	return w.pool.inject.Len() > 0 || w.anyStealableWork()
}

// settle is what a helping waiter (help) does when it found no task, and
// reports whether it may block. While some deque holds work a retry may
// find it; once none does, what the waiter waits for is running on another
// worker, and one more yield usually lets that worker finish and spares the
// channel. The injector does not count: a waiter never pops it, and one
// that spun on it would burn its core for as long as the loops leave
// submissions queued.
func (w *Worker) settle() bool {
	busy := w.anyStealableWork()
	runtime.Gosched()
	return !busy && !w.anyStealableWork()
}
