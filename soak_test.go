// Larger-scale integration runs, skipped with -short.
package worksteal

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/analysis"
	"worksteal/internal/sched"
	"worksteal/internal/sim"
	"worksteal/internal/workload"
)

// TestHighProbabilityTail checks the concentration half of Theorem 9: the
// execution time's tail is light. Across many seeds of the same dedicated
// configuration, the maximum observed time must stay within a small factor
// of the mean (the theorem gives mean + O(lg(1/eps)) throws with
// probability 1-eps, so a heavy tail would falsify it).
func TestHighProbabilityTail(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	g := workload.FibDag(14)
	const runs = 60
	times := make([]float64, 0, runs)
	sum := 0.0
	for seed := int64(0); seed < runs; seed++ {
		res := sim.NewEngine(sim.Config{Graph: g, P: 8,
			Kernel: sim.DedicatedKernel{NumProcs: 8}, Seed: seed, ShuffleSteps: true}).Run()
		if !res.Completed {
			t.Fatalf("seed %d incomplete", seed)
		}
		times = append(times, float64(res.Steps))
		sum += float64(res.Steps)
	}
	mean := sum / runs
	worst := 0.0
	for _, x := range times {
		if x > worst {
			worst = x
		}
	}
	if worst > 1.5*mean {
		t.Errorf("heavy tail: worst %v > 1.5x mean %v", worst, mean)
	}
}

// TestSoakLargeSim runs a larger simulation across all adversaries.
func TestSoakLargeSim(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	g := workload.FibDag(18) // T1 = 16717
	const p = 16
	for name, cfg := range map[string]sim.Config{
		"dedicated": {Kernel: sim.DedicatedKernel{NumProcs: p}},
		"benign":    {Kernel: sim.ConstBenign(p, 4)},
		"adaptive":  {Kernel: sim.StarveWorkersKernel{NumProcs: p}, Yield: sim.YieldToAll},
	} {
		cfg.Graph, cfg.P, cfg.Seed = g, p, 99
		res := sim.NewEngine(cfg).Run()
		if !res.Completed || res.NodesExecuted != g.NumNodes() || res.Corruptions != 0 {
			t.Fatalf("%s: %+v", name, res)
		}
	}
}

// TestSoakNativeLargeGraph runs a large dag natively on the pool's ABP
// deque (the Chase–Lev and mutex deques are internal/sched's tests' own;
// its TestRunGraphAllWorkloads runs every workload shape on them).
func TestSoakNativeLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	g := workload.UnbalancedTree(5, 200000)
	res := sched.RunGraph(sched.GraphConfig{Graph: g, Workers: 8, Seed: 7})
	if res.NodesExecuted != int64(g.NumNodes()) {
		t.Fatalf("executed %d of %d", res.NodesExecuted, g.NumNodes())
	}
}

// TestSoakServeParkWakeChurn drives a long-lived Serve session through
// many burst/idle cycles: each idle gap is long enough for the whole
// fleet to back off and park, so every burst must win the park/wake
// Dekker handshake again from a cold start. This is the liveness property
// abpwait checks statically — no submission may be lost to a parked or
// napping fleet — exercised dynamically a few hundred times in one
// session. Every handle completing is the whole assertion; the stats
// checks only confirm the test really parked and woke workers rather
// than catching the fleet hot.
func TestSoakServeParkWakeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		workers = 8
		rounds  = 300
		burst   = 32
	)
	p := sched.New(sched.Config{Workers: workers, ParkThreshold: 2})
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(ctx) }()

	// Serve accepts Submits only once its session is up; from outside the
	// package that readiness is observable exactly as ErrNotServing
	// turning into acceptance.
	waitReady := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			h, err := p.Submit(func(*sched.Worker) {})
			if err == nil {
				if werr := h.Wait(); werr != nil {
					t.Fatalf("readiness probe: %v", werr)
				}
				return
			}
			if err != sched.ErrNotServing || time.Now().After(deadline) {
				t.Fatalf("pool never became ready: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitReady()

	var ran atomic.Int64
	handles := make([]*sched.Handle, 0, burst)
	for round := 0; round < rounds; round++ {
		handles = handles[:0]
		for i := 0; i < burst; i++ {
			h, err := p.Submit(func(w *sched.Worker) {
				// A little fan-out so the burst spreads across the fleet
				// and the non-submitting workers have something to steal.
				for j := 0; j < 4; j++ {
					w.Spawn(func(*sched.Worker) { ran.Add(1) })
				}
				ran.Add(1)
			})
			if err != nil {
				t.Fatalf("round %d: Submit: %v", round, err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if err := h.Wait(); err != nil {
				t.Fatalf("round %d: Wait: %v", round, err)
			}
		}
		if round%3 == 0 {
			// Longer than the full backoff ladder: the fleet ends the gap
			// parked, and the next burst starts from a cold handshake.
			time.Sleep(2 * time.Millisecond)
		}
	}
	cancel()
	if err := <-serveErr; err == nil {
		t.Fatal("Serve returned nil after cancellation")
	}

	if got, want := ran.Load(), int64(rounds*burst*5); got != want {
		t.Fatalf("ran %d of %d tasks across the churn", got, want)
	}
	s := p.Stats()
	if s.Parks == 0 || s.Wakes == 0 {
		t.Fatalf("parks=%d wakes=%d: the fleet never actually churned through park/wake", s.Parks, s.Wakes)
	}
	if s.TasksDropped != 0 {
		t.Fatalf("%d tasks dropped during a clean churn run", s.TasksDropped)
	}
}

// TestSoakResizeChurn hammers the elastic fleet through the public API:
// hundreds of random Resize calls across the whole [1, MaxWorkers] range
// while concurrent submitters keep an open stream of fan-out submissions
// flowing. Every handle completing with nil — and a final Drain reporting
// a clean, ErrStopped-free shutdown — is the whole assertion; the stats
// checks confirm the churn really retired and restarted workers rather
// than idling at one size.
func TestSoakResizeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	maxW := 2 * runtime.GOMAXPROCS(0)
	if maxW < 4 {
		maxW = 4
	}
	const (
		rounds     = 300
		submitters = 2
		perRound   = 8
	)
	p := sched.New(sched.Config{Workers: maxW / 2, MaxWorkers: maxW, ParkThreshold: 2})
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if h, err := p.Submit(func(*sched.Worker) {}); err == nil {
			if werr := h.Wait(); werr != nil {
				t.Fatalf("readiness probe: %v", werr)
			}
			break
		} else if err != sched.ErrNotServing || time.Now().After(deadline) {
			t.Fatalf("pool never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	rng := rand.New(rand.NewSource(42))
	var ran atomic.Int64
	for round := 0; round < rounds; round++ {
		if err := p.Resize(1 + rng.Intn(maxW)); err != nil {
			t.Fatalf("round %d: Resize: %v", round, err)
		}
		var wg sync.WaitGroup
		wg.Add(submitters)
		for s := 0; s < submitters; s++ {
			go func(round, s int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					h, err := p.SubmitWithRetry(context.Background(), func(w *sched.Worker) {
						for j := 0; j < 4; j++ {
							w.Spawn(func(*sched.Worker) { ran.Add(1) })
						}
						ran.Add(1)
					}, sched.RetryPolicy{MaxAttempts: 50})
					if err != nil {
						t.Errorf("round %d submitter %d: %v", round, s, err)
						return
					}
					if err := h.Wait(); err != nil {
						t.Errorf("round %d submitter %d: Wait: %v", round, s, err)
						return
					}
				}
			}(round, s)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := p.Drain(dctx); err != nil {
		t.Fatalf("final Drain = %v after the churn", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after a graceful drain, want nil", err)
	}
	want := int64(rounds * submitters * perRound * 5)
	if got := ran.Load(); got != want {
		t.Fatalf("ran %d of %d tasks across the resize churn", got, want)
	}
	s := p.Stats()
	if s.TasksDropped != 0 {
		t.Fatalf("%d tasks dropped during a clean churn", s.TasksDropped)
	}
	if s.Resizes < rounds/2 || s.WorkersRetired == 0 {
		t.Fatalf("the churn never really exercised the fleet: resizes=%d retired=%d", s.Resizes, s.WorkersRetired)
	}

	// The pool remains usable after the drain: one more short session.
	go func() { serveErr <- p.Serve(context.Background()) }()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if h, err := p.Submit(func(*sched.Worker) {}); err == nil {
			if werr := h.Wait(); werr != nil {
				t.Fatalf("post-drain probe: %v", werr)
			}
			break
		} else if err != sched.ErrNotServing || time.Now().After(deadline) {
			t.Fatalf("pool never served again after drain: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain = %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("second Serve returned %v, want nil", err)
	}
}

// TestSoakPotentialMonotoneLarge verifies the potential function on a long
// multiprogrammed run.
func TestSoakPotentialMonotoneLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	g := workload.Grid(48, 80)
	tr := analysis.NewPotentialTracker(g.CriticalPath())
	res := sim.NewEngine(sim.Config{Graph: g, P: 12,
		Kernel: sim.BenignKernel{NumProcs: 12}, Seed: 3, Observer: tr}).Run()
	if !res.Completed {
		t.Fatal("incomplete")
	}
	st := analysis.AnalyzePhases(tr.Points, 12)
	if !st.NeverIncreased {
		t.Error("potential increased")
	}
	if st.Phases > 0 && st.SuccessRate() < 0.25 {
		t.Errorf("success rate %.2f", st.SuccessRate())
	}
}
