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
// arguments, so the library's own forks allocate nothing — one push, one
// pop, and one count in the spawner's scope; a fork its joiner pops back
// is a plain call (Join) whose counts stay in plain fields of the worker's
// own until its joiner's task ends, and whose scope release is that
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
		"worker loop: idle, about to poll the injector and attempt a steal (loop-level steals only)")
	fpStealBeforePopTop = fault.Register("sched.steal.beforePopTop",
		"stealOnce: victim chosen, PopTop not yet issued (any steal, including Join helps)")
	fpExecBeforeRun = fault.Register("sched.exec.beforeRun",
		"exec: termination accounting armed, task function not yet entered")
	fpParkBeforeSleep = fault.Register("sched.park.beforeSleep",
		"park: idle status published and re-check passed, not yet blocked on the token channel")
)

// Config configures a Pool.
type Config struct {
	// Workers is the number of worker goroutines (the paper's P processes).
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// MaxWorkers caps Pool.Resize growth (resize.go): worker structures —
	// deque, rng, park channel — are pre-allocated up to this bound at New
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
	// two, minimum 2); a submission finding it full is shed per Overload.
	// This is the service mode's admission-control knob. Defaults to 1024.
	InjectorCapacity int
	// Overload selects the shed policy for submissions that find the
	// injector full: ShedReject (default) returns ErrOverloaded,
	// ShedCallerRuns executes the submission on the submitting goroutine.
	Overload OverloadPolicy
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
// true of the session that is live right now is two fields — phase, the
// one word that says how far it has got, and sess, the record of what
// lives exactly as long as its workers do — and everything else here
// outlives sessions. Overlapping Run/RunContext/Serve calls fail the
// entry CAS on phase and panic with a clear error rather than corrupting
// the session.
type Pool struct {
	cfg     Config // New's argument with every default filled in
	workers []*Worker
	inject  *injector
	// Ordering disciplines (internal/atomicx, checked by abporder): the
	// SC-declared fields either arbitrate (phase's entry and drain CASes,
	// wakeRR's consumed Add) or participate in the park/wake handshake
	// (phase and idle are read or written inside //abp:handshake carrier
	// functions, whose store→load shape needs the full ordering). The
	// Publish-declared counters are blind increments read only by Stats —
	// release/acquire publication suffices.
	//
	// Layout discipline (abplayout, DESIGN.md §8): the words written often
	// — wakeRR's per-signal Add, idle's park/signal Dekker pair — and the
	// words every worker reads on every loop iteration and steal — phase,
	// fleet — each sit on a cache line of their own, so a read-mostly word
	// is never invalidated by the written ones or by the counters; the
	// blindly incremented counters may share lines freely among themselves.
	//
	// phase is the session's state (the phase constants below): written
	// only at a session's few transitions, read by the worker loop's exit
	// test, park's re-check, and Submit's gate and post-push re-check.
	phase  atomicx.SCUint32
	_      atomicx.CacheLinePad
	wakeRR atomicx.SCUint32 // wake scan rotation (signalWork, lifecycle.go)
	_      atomicx.CacheLinePad
	idle   atomicx.SCInt32 // workers parked or on the way in or out of park (lifecycle.go)
	_      atomicx.CacheLinePad
	// fleet bounds the victim range: stealOnce draws from workers
	// [0, fleet), and every non-empty deque is inside it (resize.go has the
	// invariant). Written rarely — under resizeMu, raised by a grow and
	// lowered by trimVictims — and read on every steal attempt.
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
	rejected   atomicx.Publish64 // submissions rejected with ErrOverloaded
	callerRuns atomicx.Publish64 // submissions shed to the caller (ShedCallerRuns)
	wg         sync.WaitGroup    // the session's goroutines: one per worker slot, and the watchdog

	// resizeMu serializes Resize calls against each other, against a session
	// start and against a retiring worker's trimVictims (resize.go). target,
	// which it guards, is the fleet size Resize was last asked for (New:
	// Config.Workers): what startSession starts running, and the floor of
	// fleet.
	resizeMu sync.Mutex
	target   int

	// Active-submission registry: every in-flight run, registered at
	// submission and removed by its finishOnce. endSession aborts the whole
	// set, and a Drain waits for the ones it found there (inFlight).
	runMu  sync.Mutex
	active map[*run]struct{}

	// sess is the live session's record, or the last one's between
	// sessions (nil before the first). startSession replaces it holding
	// runMu, which Drain reads it under. The session's own goroutines read
	// it without — the go statements that start them are after the write,
	// and the next write is after endSession has joined them.
	sess *session
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

// session is what lives exactly as long as one session's workers do, made
// by startSession. Its channels are the two halves of a session's end: stop
// asks the controller (Run's or Serve's select) to bring the session down,
// quit is the controller, in endSession, telling everybody else that it is.
type session struct {
	// stop is closed by the first stopWith, after it wrote cause: the panic
	// value of what failed — a worker loop (engineFail), a task of a Run — or
	// nil: a finished Drain's stop, or endSession's own.
	stop     chan struct{}
	stopOnce sync.Once
	cause    any
	// quit is closed by endSession: it wakes every worker asleep — parked
	// or retired — stops the watchdog and releases a Drain.
	quit chan struct{}
}

// stopWith asks the session's controller to bring it down. First caller
// wins: a later cause is dropped, as a run's later abort is (finish).
func (s *session) stopWith(cause any) {
	s.stopOnce.Do(func() {
		s.cause = cause
		close(s.stop)
	})
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
// as nobody's wake target: only a grow's token, sent after its store, ends
// that sleep. Running and idle are the fleet's members
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
	// nFutures, nRanges and nGroupTasks are the depths of the stacks of
	// records this worker may reuse (takeFuture, takeRange, takeGroupTask;
	// DESIGN.md §7): futures below nFutures are Join2's Futures of one
	// result type and ranges below nRanges are Reduce's and ParallelFor's
	// range records of one result type — each held as any, the Worker not
	// being generic — and groupTasks below nGroupTasks are spawned tasks.
	nFutures, nRanges, nGroupTasks int32
	// spawnsDue and runsDue are the spawns and popped-back calls not yet
	// added to spawns, tasksRun and progress (flush); folded is the calls
	// whose scope release the exec in flight makes for them (Future.call).
	spawnsDue, runsDue, folded int64
	futures                    [maxFreeRecords]any
	ranges                     [maxFreeRecords]any
	groupTasks                 [maxFreeRecords]*groupTask

	// progress ticks on every loop iteration and task completion; the
	// stall watchdog (watchdog.go) reads it to tell a live worker from one
	// frozen mid-operation. Written only by the worker's own goroutine
	// (loop/flush/execOrDrop, all //abp:owner).
	progress atomicx.Publish64

	// Per-worker counters, summed by Pool.Stats. Atomics so Stats is safe
	// to call while the run is in flight. The Publish-declared ones are
	// owner-only blind increments; the SC-declared ones are updated inside
	// //abp:handshake carrier functions (Spawn, park), which abporder pins
	// to full ordering.
	tasksRun      atomicx.Publish64
	spawns        atomicx.Publish64
	inlineRuns    atomicx.SCInt64
	steals        atomicx.Publish64
	stealAttempts atomicx.Publish64
	yields        atomicx.Publish64
	parks         atomicx.SCInt64
	wakes         atomicx.SCInt64

	// status (the constants above) is park's half of the wake handshake
	// (//abp:handshake store=status load=anyVisibleWork) and the word
	// Resize and the worker arbitrate retirement on, hence sc. Every
	// producer's signalWork scans it, so it has a cache line to itself:
	// neither the owner-hot block above nor the wiring below, which every
	// thief reads, may share the line the whole pool polls.
	_      atomicx.CacheLinePad
	status atomicx.SCUint32
	_      atomicx.CacheLinePad

	// The wiring: set by New and only read afterwards. Every thief's
	// stealOnce and every deque scan comes through this line for dq.
	pool   *Pool
	id     int
	dq     deque.Dequer[Task]
	rng    *rand.Rand    // victim selection; nil on the caller-runs worker (stealOnce)
	parkCh chan struct{} // capacity-1 wake token (lifecycle.go)
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
		active: map[*run]struct{}{},
	}
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
			pool:   p,
			id:     i,
			dq:     deque.NewWithCapacity[Task](cfg.DequeCapacity),
			rng:    rand.New(rand.NewSource(seed + int64(i)*1_000_003)),
			parkCh: make(chan struct{}, 1),
		}
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
	r := newRun(p, root)
	p.register(r)
	if err := ctx.Err(); err != nil {
		// Already cancelled: abort before any worker starts, so the root
		// is discarded (and counted) rather than executed.
		r.finish(runCancelled, err, nil)
	} else {
		r.watch(ctx)
	}
	s := p.startSession(&r.root)
	// The run ends — every task executed, or the submission aborted by a
	// panic or a cancellation — or a worker loop dies (engineFail), and the
	// session comes down: by then the run has ended, if only by endSession's
	// abort. A task panic stops the session as a failed loop does, so that
	// endSession re-raises it.
	select {
	case <-r.done.waitChan():
		if _, panicVal := r.outcome(); panicVal != nil {
			s.stopWith(panicVal)
		}
	case <-s.stop:
	}
	p.endSession(s)
	err, _ := r.outcome()
	return err
}

// enter claims the pool for a new session: the CAS out of idle that only
// one of any overlapping Run, RunContext and Serve calls can win.
func (p *Pool) enter(api string) {
	if !p.phase.CompareAndSwap(phaseIdle, phaseBatch) {
		panic("sched: Pool." + api + " called concurrently with a run or serve already in flight on this pool (a Pool hosts one session at a time)")
	}
}

// startSession makes the session record, sweeps what raced the previous
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
func (p *Pool) startSession(root *Task) *session {
	s := &session{stop: make(chan struct{}), quit: make(chan struct{})}
	p.drainByRun()
	// A restarted Serve behaves like a fresh pool: it does not inherit the
	// previous session's wake-scan position (the Serve→Stop→Serve
	// restartability regression pins this).
	p.wakeRR.Store(0)
	if root != nil && !p.workers[0].dq.PushBottom(root) && !p.offer(root) {
		panic("sched: a swept deque and the swept injector both refused the root")
	}
	p.runMu.Lock()
	p.sess = s
	p.runMu.Unlock()
	// Store every status word and the victim range afresh from the target
	// and fork one loop per slot, all under resizeMu: a concurrent Resize
	// comes wholly before (its target is the one started here) or wholly
	// after (it finds the goroutines it wakes). The words need the store: a
	// shrink the previous session did not live to complete — or one made
	// between sessions — left its suffix retiring. Every goroutine of the
	// session holds a slot of wg and leaves on quit (the workers: on the
	// stopping phase quit wakes them to see).
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
		go w.loop()
	}
	if p.cfg.StallTimeout > 0 {
		p.wg.Add(1)
		go p.watchdog(s.quit)
	}
	p.resizeMu.Unlock()
	return s
}

// endSession is the one teardown: it stops the session if nothing has yet
// — which is also what lets it read the cause — closes admission and tells
// the workers to leave (the stopping phase), aborts whatever is still in
// flight — with the cause if the session is ending in a panic, else
// ErrStopped; first abort wins, so a cause a run recorded earlier is
// preserved, and after a Run or a completed Drain the set is already empty
// — wakes every sleeper (quit), joins the session's goroutines, sweeps, and
// returns the pool to idle. A non-nil cause — a task panic of a Run, a
// worker-loop failure of either API — is re-raised once the pool is
// reusable. This is the only place the registry is aborted.
//
// The sweep rule: every session ends swept — the deques and the injector
// hold nothing when the pool is idle, but for what a Submit that lost its
// race with the stop pushes afterwards, which startSession's sweep is for.
func (p *Pool) endSession(s *session) {
	s.stopWith(nil)
	<-s.stop // closed by now, after the write of cause that is read below
	p.phase.Store(phaseStopping)
	state, err := runCancelled, ErrStopped
	if s.cause != nil {
		state, err = runPanicked, nil
	}
	p.runMu.Lock()
	rs := p.inFlight()
	p.runMu.Unlock()
	for _, r := range rs {
		r.finish(state, err, s.cause)
	}
	close(s.quit)
	p.wg.Wait()
	p.drainByRun()
	p.phase.Store(phaseIdle)
	if s.cause != nil {
		panic(s.cause)
	}
}

// drainByRun is the quiescent-phase sweep (endSession states the rule): it
// empties the injector and the deques, accounting every leftover task under
// the counter its submission's abort cause selects — TasksDropped for a
// panic, TasksCancelled for a cancellation or service stop. Leftovers can
// only belong to aborted submissions (a completed one has, by the scope
// invariant, no tasks left anywhere); the one a Submit pushed so late that
// no abort sweep saw its run is aborted here, so its Handle reports
// ErrStopped instead of waiting on a task nobody holds.
//
//abp:owner quiescent phase: every worker has exited before the sweep
func (p *Pool) drainByRun() {
	account := func(t *Task) {
		r := t.scope.run
		r.finish(runCancelled, ErrStopped, nil)
		if r.state.Load() == runPanicked {
			p.dropped.Add(1)
		} else {
			p.cancelledN.Add(1)
		}
	}
	for t := p.inject.TryPop(); t != nil; t = p.inject.TryPop() {
		account(t)
	}
	for _, w := range p.workers {
		for t := w.dq.PopBottom(); t != nil; t = w.dq.PopBottom() {
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
		InjectorBacklog:  int64(p.inject.Len()), // momentary, like every mid-flight Stats read
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
	}
	return s
}

// stealOnce performs one steal attempt against a uniformly random victim
// (Figure 3 line 16). The steal counters are owner-only: this worker's
// goroutine is their sole writer. The caller-runs worker (runOnCaller) has
// no rng — a rand.Source per shed submission would cost more than the
// submission — and rotates through the victims by its attempt count
// instead: it steals only to help a Join or Wait along, which needs a
// victim that holds work, not a uniformly drawn one.
//
//abp:owner steal counters belong to the stealing worker's own goroutine
//abp:nonblocking
func (w *Worker) stealOnce() *Task {
	// Victims are drawn from [0, fleet), which holds every deque that may
	// hold work (resize.go): a retiring worker's is not empty until it has
	// retired, so the range keeps it; a retired slot's is, so aiming steals
	// at it would only waste attempts. A worker outside the range — the
	// caller-runs one — steals from all of it; one inside excludes itself.
	// The read races Resize harmlessly: a stale fleet at worst aims one
	// steal at an empty (or freshly re-activated) deque.
	n := int(w.pool.fleet.Load())
	pick := n
	if w.id < n {
		pick = n - 1
	}
	if pick == 0 {
		return nil
	}
	var v int
	if w.rng != nil {
		v = w.rng.Intn(pick)
	} else {
		v = int(w.stealAttempts.Load() % int64(pick))
	}
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
// carries either way. Every task start but Future.call's comes through
// here — a pop, a steal, an injector poll, and the inline run of a spawn no
// deque took — and the return says whether the task ran.
//
//abp:owner runs only on the goroutine that owns the worker (its loop, a helping Join on it, or the submitter for the ephemeral caller-runs worker)
func (w *Worker) execOrDrop(t *Task, stolen bool) (ran bool) {
	if s := t.scope.run.state.Load(); s != runLive {
		if s == runPanicked {
			w.pool.dropped.Add(1)
		} else {
			w.pool.cancelledN.Add(1)
		}
		w.progress.Add(1)
		t.scope.release(1) // a zero here is a no-op: the abort already finished the run
		return false
	}
	w.exec(t, stolen)
	return true
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
//abp:owner exec runs only on the goroutine that owns the worker (its loop, or the submitter for the ephemeral caller-runs worker)
func (w *Worker) exec(t *Task, stolen bool) {
	s := t.scope
	if stolen {
		s = s.split()
	}
	prev, prevFolded := w.scope, w.folded
	w.scope, w.folded = s, 0
	w.runTask(t)
	k := w.folded
	w.scope, w.folded = prev, prevFolded
	w.runsDue++
	w.flush()
	s.release(1 + k)
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
	w.progress.Add(w.runsDue)
	w.runsDue = 0
}

// runTask invokes the task body under the per-task recover. A panic is
// swallowed here — recorded as the submission's abort cause — so exec's
// termination accounting above always runs and the worker loop survives
// the task.
func (w *Worker) runTask(t *Task) {
	defer func() {
		if rec := recover(); rec != nil {
			t.scope.run.finish(runPanicked, nil, rec)
		}
	}()
	fault.Point(fpExecBeforeRun)
	t.body.runTask(w)
}

// ID returns the worker's index in [0, MaxWorkers). The worker a shed
// submission runs on under ShedCallerRuns — the submitter's goroutine, not
// one of the pool's — reports MaxWorkers.
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
// member of g, or of no group when g is nil.
func (w *Worker) spawnMember(g *Group, fn func(*Worker)) {
	t := w.takeGroupTask()
	t.g, t.fn = g, fn
	w.bind(&t.task, t)
	w.spawn(&t.task)
}

// spawn publishes a task made by bind: it counts the task in the scope it
// carries, the spawner's — a word no other worker writes between steals —
// and pushes it. The handshake directive makes abplint verify the
// producer half of the Dekker protocol: the push (PushBottom's internal
// atomic store) must dominate the signalWork scan of the status words.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns w.dq
//abp:handshake store=PushBottom load=signalWork
func (w *Worker) spawn(t *Task) {
	w.spawnsDue++
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
	if r.state.Load() != runLive {
		r.panicAborted()
	}
	t, stolen := w.dq.PopBottom(), false
	if t == nil {
		t, stolen = w.stealOnce(), true
	}
	if t != nil {
		w.execOrDrop(t, stolen)
		return false
	}
	return w.settle()
}

// popBack pops w's deque bottom for a joiner: true if it was t, counted in
// the scope w runs in, for the joiner to call; anything else starts here.
//
//abp:owner tasks execute only on worker goroutines, so the receiver owns w.dq
func (w *Worker) popBack(t *Task) bool {
	b := w.dq.PopBottom()
	mine := b == t && t.scope == w.scope
	if b != nil && !mine {
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
