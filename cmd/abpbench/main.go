// Command abpbench runs the native (real goroutine) experiments the
// repository's benchmark does not: speedup curves on dag workloads, the
// same dag under background spinners, the frozen-worker chaos sweep, and
// the snapshot-gated elastic fleet. The Pool path itself — fork-join,
// multiprogramming, Serve, idle cost — and the deque operations are
// measured by benchmark/ (BENCHMARK.json: the five workloads, deque.*_ns),
// and the paper's adversaries live in the instruction-level simulator
// (cmd/abpsim).
//
// Examples:
//
//	abpbench -experiment speedup
//	abpbench -experiment contention
//	abpbench -experiment chaos
//	abpbench -experiment chaos -faults 'deque.popTop.beforeCAS=delay:p=0.01:d=200us'
//	abpbench -experiment elastic
//	abpbench -experiment elastic -check BENCH_elastic.json
//	abpbench -experiment elastic -out BENCH_elastic.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"worksteal/internal/dag"
	"worksteal/internal/sched"
	"worksteal/internal/table"
	"worksteal/internal/workload"
)

func main() {
	var (
		exp      = flag.String("experiment", "speedup", "speedup|contention|chaos|elastic")
		nodeWork = flag.Int("nodework", 2000, "synthetic work per dag node (spin iterations)")
		reps     = flag.Int("reps", 3, "repetitions per configuration (best time kept)")
		stats    = flag.Bool("stats", false, "print the scheduler counter table (parks, wakes, ...) after each -experiment chaos row")
		faults   = flag.String("faults", "", "fault spec to arm for -experiment chaos (default: the ABP_FAULTS environment variable)")
		out      = flag.String("out", "", "JSON snapshot path for -experiment elastic to write; without it the run prints its table and writes nothing")
		check    = flag.String("check", "", "baseline BENCH_elastic.json to gate -experiment elastic against (exit 1 on a >10% regression)")
	)
	flag.Parse()

	switch *exp {
	case "speedup":
		speedup(*nodeWork, *reps)
	case "contention":
		contention(*nodeWork, *reps)
	case "chaos":
		chaos(*reps, *faults, *stats)
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

var spinSink atomic.Uint64

// spin is the synthetic task body of the chaos and elastic streams: sched's
// per-node xorshift loop, with a sink against dead-code elimination.
func spin(n int) {
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}
