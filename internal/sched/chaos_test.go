// Chaos tests: the dynamic counterpart of the paper's non-blocking claim
// (§1, §3.2, §6) and of the simulator's adversary experiment (E8). Each
// test arms a failpoint (internal/fault) compiled into a hot path, freezes
// or crashes a real worker goroutine at a real instruction boundary, and
// asserts the property the paper promises: no stalled process can prevent
// the others from finishing. The mutex-deque control test shows the same
// adversary *does* wedge a blocking implementation, so the suite would
// catch a regression that quietly reintroduced blocking.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/fault"
)

// inPhase is the one way tests read the session phase: a waitFor condition
// that holds while p's session is in phase ph.
func inPhase(p *Pool, ph uint32) func() bool {
	return func() bool { return p.phase.Load() == ph }
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes, failing the test (after a fault.Reset so no worker stays
// stranded) on timeout.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			fault.Reset()
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
}

var chaosSink atomic.Uint64

// chaosSpin burns a little CPU so benchmark tasks are not pure counter
// increments.
func chaosSpin(n int) {
	x := uint64(2463534242)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	chaosSink.Store(x)
}

// The headline chaos test: suspend a thief between loading age and issuing
// the CAS inside popTop — the exact window the paper's adversary argument
// targets — and assert every task still completes while the thief stays
// frozen. Runs against both non-blocking deques.
func TestChaosSuspendedThiefMidPopTop(t *testing.T) {
	cases := []struct {
		name  string
		kind  dequeKind
		point string // registered in internal/deque
	}{
		{"ABP", dequeABP, "deque.popTop.beforeCAS"},
		{"ChaseLev", dequeChaseLev, "chaselev.popTop.beforeCAS"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			fault.Enable(tc.point, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
			const tasks = 2000
			p := newPool(tc.kind, Config{Workers: 4})
			var count atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				p.Run(func(w *Worker) {
					g := NewGroup()
					for i := 0; i < tasks; i++ {
						g.Spawn(w, func(*Worker) {
							chaosSpin(100)
							count.Add(1)
						})
					}
					// Don't help until the trap has sprung: with the root
					// refusing to pop, the idle workers must steal from its
					// full deque, and the first popTop that sees an item
					// freezes. (Without this gate the root can drain all
					// 2000 trivial tasks before the thief goroutines are
					// even scheduled, and no steal ever hits the point.)
					for fault.Fired(tc.point) == 0 {
						time.Sleep(100 * time.Microsecond)
					}
					g.Wait(w)
				})
			}()
			// The claim under test: with one worker frozen mid-popTop, the
			// remaining workers drain all the work. Both facts must hold at
			// once — the victim suspended AND every task executed.
			waitFor(t, 20*time.Second, "all tasks done while a thief is frozen mid-popTop", func() bool {
				return fault.Suspended(tc.point) == 1 && count.Load() == tasks
			})
			// Only now release the thief so the run can terminate (wg.Wait
			// needs every worker goroutine to exit).
			fault.Resume(tc.point)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("run did not terminate after resuming the frozen thief")
			}
			if count.Load() != tasks {
				t.Fatalf("ran %d of %d tasks", count.Load(), tasks)
			}
		})
	}
}

// The falsifying control: the same adversary against the mutex deque. A
// thief suspended inside PopTop holds the victim's lock, so the victim's
// own pushes and pops wedge behind it — progress provably freezes until
// the thief is resumed. This is what the non-blocking deques are for; if
// this test ever starts passing the progress check, the control is broken.
func TestChaosMutexDequeControlStalls(t *testing.T) {
	defer fault.Reset()
	const pt = "mutexdeque.popTop.locked" // registered in internal/deque
	fault.Enable(pt, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	const tasks = 500
	p := newPool(dequeMutex, Config{Workers: 2})
	var count atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(w *Worker) {
			// Produce nothing until the thief is frozen inside PopTop —
			// while it holds this worker's deque mutex. (Fired, not
			// Suspended: the suspension may already be over if the test's
			// Resume won a race, and Fired stays up.)
			for fault.Fired(pt) == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			g := NewGroup()
			for i := 0; i < tasks; i++ {
				g.Spawn(w, func(*Worker) { count.Add(1) })
			}
			g.Wait(w)
		})
	}()
	waitFor(t, 10*time.Second, "thief suspended inside the locked PopTop", func() bool {
		return fault.Suspended(pt) == 1
	})
	time.Sleep(100 * time.Millisecond) // let the producer run into the held lock
	c1 := count.Load()
	time.Sleep(250 * time.Millisecond)
	c2 := count.Load()
	if c1 != c2 || c2 == tasks {
		t.Fatalf("mutex-deque pool made progress (%d -> %d of %d) with a thief frozen holding the lock; the blocking control no longer blocks", c1, c2, tasks)
	}
	fault.Resume(pt)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not complete after resuming the lock-holding thief")
	}
	if count.Load() != tasks {
		t.Fatalf("ran %d of %d tasks after resume", count.Load(), tasks)
	}
}

// A panic raised by the loop machinery itself — outside exec's per-task
// recover — must abort the run cleanly (recoverLoopPanic), not crash the
// process or strand wg.Wait, and the pool must stay usable.
func TestChaosLoopPanicTerminatesRun(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fpLoopBeforeSteal, fault.Rule{Action: fault.ActionPanic, OneShot: true})
	p := New(Config{Workers: 4})
	var recovered any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recovered = recover() }()
		// The root outlasts the idle workers' way to their steal attempts,
		// where one of them trips the injected panic between tasks and
		// stops the session.
		p.Run(func(w *Worker) {
			spinUntil(t, "a worker loop to die", func() bool {
				select {
				case <-w.pool.sess.stop:
					return true
				default:
					return false
				}
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after an injected worker-loop panic")
	}
	ip, ok := recovered.(fault.InjectedPanic)
	if !ok || ip.Point != fpLoopBeforeSteal {
		t.Fatalf("recovered %v, want InjectedPanic at %s", recovered, fpLoopBeforeSteal)
	}
	var count atomic.Int64
	p.Run(func(w *Worker) {
		for i := 0; i < 50; i++ {
			w.Spawn(func(*Worker) { count.Add(1) })
		}
	})
	if count.Load() != 50 {
		t.Fatalf("pool ran %d of 50 tasks after a loop-panic abort", count.Load())
	}
}

// The same failure under Serve: the dying loop stops the session
// (engineFail), Serve's controller brings it down, the submission in
// flight aborts with the panic value while its task is still blocked, Serve
// re-panics with the value, and the pool serves again.
func TestChaosLoopPanicStopsServe(t *testing.T) {
	defer fault.Reset()
	// Spinning workers: the idle one reaches its next steal attempt, and the
	// failpoint armed below, without having to be woken.
	p := New(Config{Workers: 2, ParkThreshold: math.MaxInt})
	var recovered any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recovered = recover() }()
		_ = p.Serve(context.Background())
	}()
	waitFor(t, 10*time.Second, "pool to start serving", inPhase(p, phaseServing))
	gate := make(chan struct{})
	started := make(chan struct{})
	h, err := p.Submit(func(*Worker) { close(started); <-gate })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	fault.Enable(fpLoopBeforeSteal, fault.Rule{Action: fault.ActionPanic, OneShot: true})
	var pe PanicError
	if err := h.Wait(); !errors.As(err, &pe) {
		t.Fatalf("Wait = %v for a submission in flight at an engine failure, want a PanicError", err)
	} else if ip, ok := pe.Value.(fault.InjectedPanic); !ok || ip.Point != fpLoopBeforeSteal {
		t.Fatalf("Wait = %v, want the InjectedPanic at %s", err, fpLoopBeforeSteal)
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after an injected worker-loop panic")
	}
	if ip, ok := recovered.(fault.InjectedPanic); !ok || ip.Point != fpLoopBeforeSteal {
		t.Fatalf("Serve panicked with %v, want InjectedPanic at %s", recovered, fpLoopBeforeSteal)
	}
	stop := startServing(t, p)
	if h, err = p.Submit(func(*Worker) {}); err != nil {
		t.Fatalf("Submit after an engine failure: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait after an engine failure: %v", err)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("restarted Serve returned %v", err)
	}
}

// Regression test for the drain bug: an abort that fires before any worker
// takes a root that a refused push handed off used to leave the stale root
// there, and the next Run would execute it as a ghost. The aborted session's
// own end sweep must clear it and count it in TasksDropped.
func TestPoolReuseAfterAbortDropsStaleHandoff(t *testing.T) {
	defer fault.Reset()
	p := New(Config{Workers: 1})
	p.workers[0].dq = &rejectFirstPush{Dequer: p.workers[0].dq}
	// Crash the worker loop at entry — after startSession handed the refused
	// root to the injector, before the loop polls it.
	fault.Enable(fpLoopEnter, fault.Rule{Action: fault.ActionPanic, OneShot: true})
	var stale atomic.Int64
	var recovered any
	dropped0 := p.Stats().TasksDropped
	func() {
		defer func() { recovered = recover() }()
		p.Run(func(*Worker) { stale.Add(1) })
	}()
	if ip, ok := recovered.(fault.InjectedPanic); !ok || ip.Point != fpLoopEnter {
		t.Fatalf("recovered %v, want InjectedPanic at %s", recovered, fpLoopEnter)
	}
	var count atomic.Int64
	p.Run(func(w *Worker) {
		for i := 0; i < 50; i++ {
			w.Spawn(func(*Worker) { count.Add(1) })
		}
	})
	if got := stale.Load(); got != 0 {
		t.Fatalf("stale root from the aborted run executed %d times in the next run", got)
	}
	if count.Load() != 50 {
		t.Fatalf("second run executed %d of 50 tasks", count.Load())
	}
	if got := p.Stats().TasksDropped - dropped0; got != 1 {
		t.Fatalf("TasksDropped grew by %d across the reuse, want 1 (the stranded handoff)", got)
	}
}

// The lifecycle race between recordPanic's abort and a worker entering
// park: the worker has published its parked flag and passed the re-check
// but has not yet blocked on its token channel when the abort closes. The
// abort must still wake it (park's select covers the abort channel), or
// wg.Wait would hang forever.
func TestAbortWakesWorkerSuspendedEnteringPark(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fpParkBeforeSleep, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	p := New(Config{Workers: 2})
	var recovered any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recovered = recover() }()
		p.Run(func(*Worker) {
			// Keep the root busy until the idle worker is frozen in the
			// instruction window between its pre-block re-check and its
			// select, then abort the run under it.
			for fault.Suspended(fpParkBeforeSleep) == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			panic("park-abort race")
		})
	}()
	// Wait until both halves of the race are in place: the worker frozen
	// short of its select, and the abort already published.
	waitFor(t, 10*time.Second, "worker frozen entering park and run aborted", func() bool {
		return fault.Suspended(fpParkBeforeSleep) == 1 && inPhase(p, phaseStopping)()
	})
	fault.Resume(fpParkBeforeSleep)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung: the abort was lost on a worker suspended entering park")
	}
	if recovered != "park-abort race" {
		t.Fatalf("recovered %v, want the root panic value", recovered)
	}
}

// The watchdog must surface a worker frozen mid-task (here: suspended just
// before entering the task function) via OnStall and Stats.StallsDetected,
// while exempting the healthy parked worker.
func TestWatchdogSurfacesStalledWorker(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fpExecBeforeRun, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	reports := make(chan StallReport, 16)
	const window = 25 * time.Millisecond
	p := New(Config{Workers: 2, StallTimeout: window, OnStall: func(r StallReport) {
		select {
		case reports <- r:
		default:
		}
	}})
	var count atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(*Worker) { count.Add(1) })
	}()
	var rep StallReport
	select {
	case rep = <-reports:
	case <-time.After(10 * time.Second):
		fault.Reset()
		t.Fatal("watchdog never reported the frozen worker")
	}
	if rep.Worker < 0 || rep.Worker >= 2 {
		t.Fatalf("stall report names worker %d of a 2-worker pool", rep.Worker)
	}
	if rep.Stalled < window {
		t.Fatalf("reported stall of %v, want at least the %v window", rep.Stalled, window)
	}
	fault.Resume(fpExecBeforeRun)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not complete after resuming the stalled worker")
	}
	if count.Load() != 1 {
		t.Fatal("root never ran after resume")
	}
	if p.Stats().StallsDetected == 0 {
		t.Fatal("Stats.StallsDetected is zero after a reported stall")
	}
}

// Randomized chaos soak: every registered point armed with low-probability
// delays and yields (never suspend or panic — the run must finish unaided),
// a fork-join workload on both non-blocking deques, result checked exactly.
// Run with -race in CI; ABP_CHAOS_SOAK=<rounds> extends it for the nightly
// job.
func TestChaosRandomSoak(t *testing.T) {
	defer fault.Reset()
	rounds := 2
	if env := os.Getenv("ABP_CHAOS_SOAK"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("ABP_CHAOS_SOAK=%q: want a positive round count", env)
		}
		rounds = n
	}
	want := fibSerial(20)
	for _, kind := range []struct {
		name string
		k    dequeKind
	}{{"ABP", dequeABP}, {"ChaseLev", dequeChaseLev}} {
		t.Run(kind.name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				for i, pt := range fault.Catalog() {
					rule := fault.Rule{Action: fault.ActionYield, Prob: 0.05, Seed: int64(1000*r + i + 1)}
					if i%2 == 0 {
						rule = fault.Rule{Action: fault.ActionDelay, Prob: 0.02, Delay: 50 * time.Microsecond, Seed: int64(2000*r + i + 1)}
					}
					fault.Enable(pt.Name, rule)
				}
				p := newPool(kind.k, Config{Workers: 4, Seed: int64(r + 1)})
				var got int
				p.Run(func(w *Worker) { got = fibPar(w, 20, 5) })
				fault.Reset()
				if got != want {
					t.Fatalf("round %d: fib(20) = %d under chaos, want %d", r, got, want)
				}
			}
		})
	}
}

// The injector's version of the suspended-thief adversary: freeze a worker
// at the instruction boundary inside TryPop before its dequeue CAS — the
// poller holds no cell there, by construction — and assert the service
// keeps draining submissions through the other workers while it stays
// frozen. The companion to TestChaosSuspendedThiefMidPopTop for the queue
// submissions enter through.
func TestChaosSuspendedThiefMidInjectorPoll(t *testing.T) {
	defer fault.Reset()
	p := New(Config{Workers: 4})
	stop := startServing(t, p)
	// Arm the point only now: Serve's own startSession sweeps the injector
	// through the same TryPop, and freezing the Serve goroutine
	// there would be a different (and broken) experiment.
	fault.Enable(fpInjectorBeforePop, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	// By now every worker may have parked, and a parked worker polls
	// nothing: one submission wakes one, which freezes entering the poll.
	// (The submission itself is drained with the burst below.)
	if _, err := p.Submit(func(*Worker) {}); err != nil {
		t.Fatalf("Submit to wake a poller: %v", err)
	}
	waitFor(t, 10*time.Second, "a worker frozen entering the injector poll", func() bool {
		return fault.Suspended(fpInjectorBeforePop) == 1
	})

	const subs = 200
	var count atomic.Int64
	handles := make([]*Handle, 0, subs)
	for i := 0; i < subs; i++ {
		h, err := p.Submit(func(w *Worker) {
			g := NewGroup()
			for j := 0; j < 5; j++ {
				g.Spawn(w, func(*Worker) {
					chaosSpin(100)
					count.Add(1)
				})
			}
			g.Wait(w)
		})
		if err != nil {
			t.Fatalf("Submit %d with a frozen poller: %v", i, err)
		}
		handles = append(handles, h)
	}
	// The claim under test: every submission completes while the poller is
	// still frozen mid-TryPop on the one ring they all flow through.
	waitFor(t, 20*time.Second, "all submissions done while a poller is frozen mid-TryPop", func() bool {
		if fault.Suspended(fpInjectorBeforePop) != 1 {
			return false
		}
		for _, h := range handles {
			if h.Err() == nil {
				select {
				case <-h.Done():
				default:
					return false
				}
			}
		}
		return true
	})
	for i, h := range handles {
		if err := h.Err(); err != nil {
			t.Fatalf("submission %d failed under the frozen poller: %v", i, err)
		}
	}
	if got := count.Load(); got != subs*5 {
		t.Fatalf("ran %d of %d tasks with a poller frozen", got, subs*5)
	}
	fault.Resume(fpInjectorBeforePop)
	if err := stop(); err == nil {
		t.Fatal("Serve returned nil after cancellation")
	}
}

// A worker in the park window — status and idle count published, re-check
// passed, not yet blocked in the select — is as visible to producers as one
// asleep: otherwise a submission arriving in the window would wait for
// whatever else woke the worker. Every idle episode crosses this window, so
// the test freezes the worker there and proves a Submit finds it
// signallable and its wake token ends the sleep at once.
func TestChaosParkWindowVisibleToSignal(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fpParkBeforeSleep, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	p := New(Config{Workers: 1})
	stop := startServing(t, p)
	// The lone worker finds nothing, burns through the hot phase, and
	// freezes entering its first park.
	waitFor(t, 10*time.Second, "worker frozen entering its park", func() bool {
		return fault.Suspended(fpParkBeforeSleep) == 1
	})
	if got := p.idle.Load(); got != 1 {
		t.Fatalf("idle count = %d with the worker in the park window, want 1", got)
	}
	if !isIdle(p.workers[0]) {
		t.Fatal("status not idle in the park window: the worker is invisible to signalWork")
	}

	var ran atomic.Bool
	h, err := p.Submit(func(*Worker) { ran.Store(true) })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// signalWork read idle and left a token; once resumed, the worker's
	// select takes it — the only other case is the session's quit, which
	// nothing closes before the submission resolves — and the submission
	// runs.
	fault.Resume(fpParkBeforeSleep)
	if werr := h.Wait(); werr != nil {
		t.Fatalf("Wait: %v", werr)
	}
	if !ran.Load() {
		t.Fatal("submission never ran")
	}
	if s := p.Stats(); s.Wakes != 1 {
		t.Fatalf("%d wakes: the sleep the worker was frozen entering did not end on the token Submit left it", s.Wakes)
	}
	if err := stop(); err == nil {
		t.Fatal("Serve returned nil after cancellation")
	}
}

// BenchmarkChaosSuspendedWorkers sweeps throughput against the number of
// worker goroutines frozen at the loop-level steal point: the quantitative
// form of the non-blocking claim (k frozen workers cost at most their k
// processors, they never wedge the rest). frozen=7 of 8 leaves the root
// worker computing everything alone via Group.Wait's help loop.
func BenchmarkChaosSuspendedWorkers(b *testing.B) {
	defer fault.Reset()
	const workers = 8
	const tasks = 2000
	for _, frozen := range []int{0, 1, 2, 4, 7} {
		b.Run(fmt.Sprintf("frozen=%d", frozen), func(b *testing.B) {
			p := New(Config{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if frozen > 0 {
					fault.Enable(fpLoopBeforeSteal, fault.Rule{Action: fault.ActionSuspend, Times: frozen})
				}
				var count atomic.Int64
				p.Run(func(w *Worker) {
					g := NewGroup()
					for j := 0; j < tasks; j++ {
						g.Spawn(w, func(*Worker) {
							chaosSpin(200)
							count.Add(1)
						})
					}
					g.Wait(w)
					// All tasks are done; release the frozen thieves so the
					// run can terminate. (sched.loop.beforeSteal fires only
					// for loop-level steals, so this helping root can never
					// have frozen itself.)
					fault.Resume(fpLoopBeforeSteal)
				})
				if count.Load() != tasks {
					b.Fatalf("ran %d of %d tasks with %d workers frozen", count.Load(), tasks, frozen)
				}
				fault.Disable(fpLoopBeforeSteal)
			}
			b.ReportMetric(tasks, "tasks/op")
		})
	}
}

// The watchdog must treat a retiring worker like a parked one: a worker
// frozen by the kernel adversary at the retire safe point is not a stall
// of the serving fleet. The test suspends a worker mid-retirement for
// several full watchdog windows and asserts OnStall never fires.
func TestWatchdogExemptsRetiringWorker(t *testing.T) {
	defer fault.Reset()
	var stalls atomic.Int64
	p := New(Config{Workers: 2, ParkThreshold: 2, StallTimeout: 40 * time.Millisecond,
		OnStall: func(StallReport) { stalls.Add(1) }})
	stop := startServing(t, p)
	fault.Enable("sched.resize.beforeRetire", fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	if err := p.Resize(1); err != nil {
		t.Fatalf("Resize(1): %v", err)
	}
	waitFor(t, 10*time.Second, "the retiring worker to freeze at the safe point", func() bool {
		return fault.Suspended("sched.resize.beforeRetire") == 1
	})
	// Several full windows with the worker motionless mid-retire. Worker 0
	// is parked (exempt); the frozen worker must be exempt too.
	time.Sleep(200 * time.Millisecond)
	if got := stalls.Load(); got != 0 {
		t.Fatalf("OnStall fired %d times for a worker suspended at the retire safe point", got)
	}
	fault.Resume("sched.resize.beforeRetire")
	waitFor(t, 10*time.Second, "retirement to complete after resume", func() bool {
		return p.Stats().WorkersRetired == 1
	})
	if err := stop(); err == nil {
		t.Fatal("Serve returned nil after cancellation")
	}
}

// TestChaosKernelAdversary is the issue's headline property: an
// adversarial kernel that suspends workers at scheduler instruction
// boundaries AND grows/shrinks the granted processor set at random —
// exactly the paper's P_A(t) model made hostile — while an open stream of
// submissions flows in. Every submission must complete exactly once (its
// private counter reads exactly root+3), no Handle may wedge, and nothing
// may be dropped. The stream lasts until the adversary has resized the
// fleet and retired a worker under it, so the coverage the test claims
// holds by construction. Runs against both non-blocking deques.
func TestChaosKernelAdversary(t *testing.T) {
	points := []string{
		"sched.resize.beforeRetire",
		"sched.resize.beforeHandoff",
		"sched.loop.beforeSteal",
		"sched.park.beforeSleep",
	}
	for _, tc := range []struct {
		name string
		kind dequeKind
	}{
		{"ABP", dequeABP},
		{"ChaseLev", dequeChaseLev},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			const (
				maxW       = 8
				submitters = 3
			)
			perSub := 700
			if testing.Short() {
				perSub = 400
			}
			p := newPool(tc.kind, Config{Workers: maxW / 2, MaxWorkers: maxW, ParkThreshold: 2})
			stop := startServing(t, p)

			// The adversary: a random walk over fleet sizes interleaved with
			// bounded suspensions at the retire and idle safe points. Every
			// armed window is resumed and disarmed before the next, so the
			// adversary is hostile but finite — the paper's kernel, which may
			// do anything except stop the clock forever.
			advStop := make(chan struct{})
			advDone := make(chan struct{})
			go func() {
				defer close(advDone)
				rng := rand.New(rand.NewSource(0xADBE))
				for i := 0; ; i++ {
					select {
					case <-advStop:
						return
					default:
					}
					if err := p.Resize(1 + rng.Intn(maxW)); err != nil {
						t.Errorf("adversary Resize: %v", err)
						return
					}
					pt := points[rng.Intn(len(points))]
					fault.Enable(pt, fault.Rule{Action: fault.ActionSuspend, Times: 1 + rng.Intn(2)})
					time.Sleep(time.Duration(200+rng.Intn(1800)) * time.Microsecond)
					fault.Resume(pt)
					fault.Disable(pt)
				}
			}()

			// The stream runs until the adversary has both resized the fleet
			// and seen a worker retire, however fast the engine gets through
			// perSub submissions each, or until the adversary gave up (its
			// error is reported, and the assertion below fails).
			exercised := func() bool {
				select {
				case <-advDone:
					return true
				default:
				}
				s := p.Stats()
				return s.Resizes > 0 && s.WorkersRetired > 0
			}
			var started, completed atomic.Int64
			var wg sync.WaitGroup
			wg.Add(submitters)
			for s := 0; s < submitters; s++ {
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSub || !exercised(); i++ {
						started.Add(1)
						var n atomic.Int64
						h, err := p.SubmitWithRetry(context.Background(), func(w *Worker) {
							for j := 0; j < 3; j++ {
								w.Spawn(func(*Worker) { chaosSpin(50); n.Add(1) })
							}
							n.Add(1)
						}, RetryPolicy{MaxAttempts: 50, Seed: int64(s + 1)})
						if err != nil {
							t.Errorf("submitter %d: submission %d: %v", s, i, err)
							return
						}
						if err := h.Wait(); err != nil {
							t.Errorf("submitter %d: submission %d: Wait = %v", s, i, err)
							return
						}
						if got := n.Load(); got != 4 {
							t.Errorf("submitter %d: submission %d ran %d of its 4 tasks (lost or doubled work)", s, i, got)
							return
						}
						completed.Add(1)
					}
				}(s)
			}

			// A wedged Handle.Wait shows up here as the global timeout.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(3 * time.Minute):
				fault.Reset()
				t.Fatalf("wedged: only %d of %d submissions completed under the kernel adversary",
					completed.Load(), started.Load())
			}
			close(advStop)
			<-advDone
			fault.Reset()

			if got, want := completed.Load(), started.Load(); got != want || got < submitters*int64(perSub) {
				t.Fatalf("completed %d of %d submissions (at least %d)", got, want, submitters*perSub)
			}
			s := p.Stats()
			if s.TasksDropped != 0 {
				t.Fatalf("%d tasks dropped under the adversary", s.TasksDropped)
			}
			// The exact steal invariant the engine gives: only a spawned
			// task that made it onto a deque can be stolen, and PopTop
			// removes it, so at most once; injected roots and the tasks a
			// retiring worker re-publishes travel through the injector,
			// which is polled, never stolen from.
			if pushed := s.Spawns - s.InlineRuns; s.Steals > pushed {
				t.Fatalf("%d steals of only %d deque-pushed tasks (spawns %d, inline %d): a task was stolen twice",
					s.Steals, pushed, s.Spawns, s.InlineRuns)
			}
			// Sanity log in the shape of the Leiserson/Schardl/Suksompong
			// steals-per-task bounds: an adversary may inflate attempts,
			// never successful steals per task.
			t.Logf("steals/task %.3f, attempts/task %.2f (%d steals, %d attempts, %d tasks, %d spawns)",
				float64(s.Steals)/float64(s.TasksRun), float64(s.StealAttempts)/float64(s.TasksRun),
				s.Steals, s.StealAttempts, s.TasksRun, s.Spawns)
			if s.Resizes == 0 || s.WorkersRetired == 0 {
				t.Fatalf("the adversary never actually exercised the elastic fleet: resizes=%d retired=%d",
					s.Resizes, s.WorkersRetired)
			}
			if err := stop(); err == nil {
				t.Fatal("Serve returned nil after cancellation")
			}
		})
	}
}
