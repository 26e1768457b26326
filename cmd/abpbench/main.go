// Command abpbench runs the native (real goroutine) work-stealing pool
// experiments: speedup curves on dag workloads, the multiprogramming
// emulation (more workers than GOMAXPROCS), and the deque/yield ablations
// on real hardware. It complements the instruction-level simulator
// (cmd/abpsim), which is where the paper's adversaries live.
//
// Examples:
//
//	abpbench -experiment speedup
//	abpbench -experiment multiprogram
//	abpbench -experiment ablation
//	abpbench -experiment tasks -stats
//	abpbench -experiment idle
//	abpbench -experiment chaos
//	abpbench -experiment chaos -faults 'deque.popTop.beforeCAS=delay:p=0.01:d=200us'
//	abpbench -experiment submit -out BENCH_submit.json
//	abpbench -experiment hotpath
//	abpbench -experiment hotpath -check BENCH_hotpath.json
//	abpbench -experiment elastic
//	abpbench -experiment elastic -check BENCH_elastic.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"worksteal/internal/dag"
	"worksteal/internal/sched"
	"worksteal/internal/table"
	"worksteal/internal/workload"
)

func main() {
	var (
		exp      = flag.String("experiment", "speedup", "speedup|multiprogram|ablation|tasks|contention|idle|chaos|submit|hotpath|elastic")
		nodeWork = flag.Int("nodework", 2000, "synthetic work per dag node (spin iterations)")
		reps     = flag.Int("reps", 3, "repetitions per configuration (best time kept)")
		stats    = flag.Bool("stats", false, "print the scheduler counter table (parks, wakes, backoff, ...) after pool experiments")
		faults   = flag.String("faults", "", "fault spec to arm for -experiment chaos (default: the ABP_FAULTS environment variable)")
		out      = flag.String("out", "", "JSON snapshot path (default BENCH_<experiment>.json) for -experiment submit|hotpath|elastic")
		check    = flag.String("check", "", "baseline BENCH_<experiment>.json to gate -experiment hotpath|elastic against (exit 1 on a >10% regression)")
	)
	flag.Parse()

	switch *exp {
	case "speedup":
		speedup(*nodeWork, *reps)
	case "multiprogram":
		multiprogram(*nodeWork, *reps)
	case "ablation":
		ablation(*nodeWork, *reps)
	case "tasks":
		tasks(*reps, *stats)
	case "contention":
		contention(*nodeWork, *reps)
	case "idle":
		idleOverhead(*reps)
	case "chaos":
		chaos(*reps, *faults, *stats)
	case "submit":
		submitExperiment(*nodeWork, *reps, *out, *stats)
	case "hotpath":
		hotpathExperiment(*nodeWork, *reps, *out, *check)
	case "elastic":
		elasticExperiment(*nodeWork, *reps, *out, *check)
	default:
		fmt.Fprintf(os.Stderr, "abpbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func bestGraphRun(cfg sched.GraphConfig, reps int) sched.GraphResult {
	var best sched.GraphResult
	for i := 0; i < reps; i++ {
		cfg.Seed = int64(i + 1)
		res := sched.RunGraph(cfg)
		if i == 0 || res.Elapsed < best.Elapsed {
			best = res
		}
	}
	return best
}

// speedup measures native dag execution time versus worker count.
func speedup(nodeWork, reps int) {
	tb := table.New(fmt.Sprintf("native speedup (GOMAXPROCS=%d, nodework=%d)", runtime.GOMAXPROCS(0), nodeWork),
		"workload", "T1", "Tinf", "workers", "time", "speedup", "steals")
	for _, spec := range []workload.Spec{
		{Name: "fib", Build: func() *dag.Graph { return workload.FibDag(18) }},
		{Name: "spine", Build: func() *dag.Graph { return workload.SpawnSpine(64, 256) }},
		{Name: "grid", Build: func() *dag.Graph { return workload.Grid(64, 128) }},
		{Name: "chain", Build: func() *dag.Graph { return workload.Chain(4000) }},
	} {
		g := spec.Build()
		var base time.Duration
		for _, w := range []int{1, 2, 4, 8} {
			res := bestGraphRun(sched.GraphConfig{Graph: g, Workers: w, NodeWork: nodeWork}, reps)
			if w == 1 {
				base = res.Elapsed
			}
			tb.Row(spec.Name, g.Work(), g.CriticalPath(), w, res.Elapsed.Round(time.Microsecond),
				float64(base)/float64(res.Elapsed), res.Steals)
		}
	}
	tb.Render(os.Stdout)
}

// multiprogram emulates a multiprogrammed environment on the native pool:
// P workers share GOMAXPROCS < P processors (the Go runtime plays the
// kernel), so P_A ~= GOMAXPROCS while P grows.
func multiprogram(nodeWork, reps int) {
	avail := 2
	prev := runtime.GOMAXPROCS(avail)
	defer runtime.GOMAXPROCS(prev)

	g := workload.FibDag(18)
	tb := table.New(fmt.Sprintf("multiprogramming emulation (GOMAXPROCS=%d, T1=%d, Tinf=%d)", avail, g.Work(), g.CriticalPath()),
		"workers P", "time", "vs P=2", "steals", "yields")
	var base time.Duration
	for _, w := range []int{2, 4, 8, 16} {
		res := bestGraphRun(sched.GraphConfig{Graph: g, Workers: w, NodeWork: nodeWork}, reps)
		if w == 2 {
			base = res.Elapsed
		}
		tb.Row(w, res.Elapsed.Round(time.Microsecond), float64(res.Elapsed)/float64(base),
			res.Steals, res.Yields)
	}
	tb.Render(os.Stdout)
	fmt.Println("The paper's bound predicts time ~ T1/P_A + Tinf*P/P_A: with P_A pinned at")
	fmt.Println("GOMAXPROCS, growing P should cost only the (small) Tinf*P/P_A term.")
}

// ablation compares the ABP deque against the mutex deque and yields
// against no yields, under multiprogramming pressure (P > GOMAXPROCS).
func ablation(nodeWork, reps int) {
	avail := 2
	prev := runtime.GOMAXPROCS(avail)
	defer runtime.GOMAXPROCS(prev)

	g := workload.FibDag(17)
	const workers = 16
	tb := table.New(fmt.Sprintf("native ablations (P=%d workers on GOMAXPROCS=%d)", workers, avail),
		"config", "time", "vs full", "steals", "yields")
	full := bestGraphRun(sched.GraphConfig{Graph: g, Workers: workers, NodeWork: nodeWork}, reps)
	tb.Row("ABP + yield", full.Elapsed.Round(time.Microsecond), 1.0, full.Steals, full.Yields)
	mutex := bestGraphRun(sched.GraphConfig{Graph: g, Workers: workers, NodeWork: nodeWork,
		Deque: sched.DequeMutex}, reps)
	tb.Row("mutex deque", mutex.Elapsed.Round(time.Microsecond),
		float64(mutex.Elapsed)/float64(full.Elapsed), mutex.Steals, mutex.Yields)
	noYield := bestGraphRun(sched.GraphConfig{Graph: g, Workers: workers, NodeWork: nodeWork,
		DisableYield: true}, reps)
	tb.Row("no yield", noYield.Elapsed.Round(time.Microsecond),
		float64(noYield.Elapsed)/float64(full.Elapsed), noYield.Steals, noYield.Yields)
	tb.Render(os.Stdout)
	fmt.Println("Note: idle pool workers back off and park whether or not they yield, and")
	fmt.Println("Go's runtime preempts asynchronously, so removing yields costs little here;")
	fmt.Println("on the paper's 1998 kernels it meant unbounded starvation (see the simulator")
	fmt.Println("ablation, cmd/figures E8).")
}

// tasks exercises the task-parallel API (Fork/Join, ParallelFor, Reduce).
func tasks(reps int, showStats bool) {
	tb := table.New(fmt.Sprintf("task API benchmarks (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		"benchmark", "workers", "time", "speedup")
	type job struct {
		name string
		run  func(p *sched.Pool)
	}
	jobs := []job{
		{"fib(28) cutoff 12", func(p *sched.Pool) {
			p.Run(func(w *sched.Worker) { _ = fibPar(w, 28, 12) })
		}},
		{"reduce 4M ints", func(p *sched.Pool) {
			p.Run(func(w *sched.Worker) {
				_ = sched.Reduce(w, 0, 1<<22, 1<<12,
					func(i int) int64 { return int64(i) },
					func(a, b int64) int64 { return a + b })
			})
		}},
	}
	for _, j := range jobs {
		var base time.Duration
		for _, workers := range []int{1, 2, 4, 8} {
			p := sched.New(sched.Config{Workers: workers})
			var best time.Duration
			for r := 0; r < reps; r++ {
				start := time.Now()
				j.run(p)
				if d := time.Since(start); r == 0 || d < best {
					best = d
				}
			}
			if workers == 1 {
				base = best
			}
			tb.Row(j.name, workers, best.Round(time.Microsecond), float64(base)/float64(best))
			if showStats {
				fmt.Printf("-- stats: %s, workers=%d\n%s", j.name, workers, p.Stats())
			}
		}
	}
	tb.Render(os.Stdout)
}

// idleOverhead measures what idle workers cost while one long serial task
// holds the pool: with the parking lifecycle (the default) each idle
// worker makes a handful of steal attempts, backs off, and parks — near
// zero CPU — while the paper's pure spinning loop (DisableParking) burns
// every idle core for the full duration. Steal attempts and yields are
// the CPU-burn proxies.
func idleOverhead(reps int) {
	tb := table.New(fmt.Sprintf("idle overhead: 100ms serial task on an 8-worker pool (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		"config", "steal attempts", "yields", "parks", "wakes", "backoff")
	for _, m := range []struct {
		name    string
		disable bool
	}{
		{"parking (default)", false},
		{"spinning (DisableParking)", true},
	} {
		p := sched.New(sched.Config{Workers: 8, DisableParking: m.disable})
		for r := 0; r < reps; r++ {
			p.Run(func(w *sched.Worker) { time.Sleep(100 * time.Millisecond) })
		}
		s := p.Stats()
		tb.Row(m.name, s.StealAttempts, s.Yields, s.Parks, s.Wakes,
			time.Duration(s.BackoffNanos).Round(time.Microsecond))
	}
	tb.Render(os.Stdout)
	fmt.Println("A spinning idle worker attempts steals millions of times per second (one")
	fmt.Println("core each at 100%); a parked worker stops after ~threshold attempts.")
}

// contention reproduces the paper's motivating scenario natively: the
// parallel computation shares the machine with other applications, here
// modeled by background spinner goroutines competing for the same
// processors (the Go runtime is the kernel deciding who runs). The paper's
// bound predicts graceful degradation proportional to the lost P_A.
func contention(nodeWork, reps int) {
	g := workload.FibDag(17)
	const workers = 4
	tb := table.New(fmt.Sprintf("background contention (workers=%d, GOMAXPROCS=%d)", workers, runtime.GOMAXPROCS(0)),
		"background load", "time", "vs idle", "steals")
	var base time.Duration
	for _, spinners := range []int{0, 1, 2, 4, 8} {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < spinners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint64(1)
				for {
					select {
					case <-stop:
						return
					default:
						x ^= x << 13
						x ^= x >> 7
						runtime.Gosched()
					}
				}
			}()
		}
		res := bestGraphRun(sched.GraphConfig{Graph: g, Workers: workers, NodeWork: nodeWork}, reps)
		close(stop)
		wg.Wait()
		if spinners == 0 {
			base = res.Elapsed
		}
		tb.Row(spinners, res.Elapsed.Round(time.Microsecond),
			float64(res.Elapsed)/float64(base), res.Steals)
	}
	tb.Render(os.Stdout)
	fmt.Println("Spinners steal processor time the way the paper's 'mix of serial and")
	fmt.Println("parallel applications' does; the slowdown should track the lost P_A share.")
}

func fibPar(w *sched.Worker, n, cutoff int) int {
	if n < cutoff {
		return fibSerial(n)
	}
	a, b := sched.Join2(w,
		func(w2 *sched.Worker) int { return fibPar(w2, n-1, cutoff) },
		func(w2 *sched.Worker) int { return fibPar(w2, n-2, cutoff) })
	return a + b
}

func fibSerial(n int) int {
	if n < 2 {
		return n
	}
	return fibSerial(n-1) + fibSerial(n-2)
}
