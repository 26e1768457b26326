// Package worksteal's root benchmark harness: one benchmark per experiment
// row in DESIGN.md's per-experiment index (E1-E14 regenerate the paper's
// figure/table analogues; D1 are the Figure 5 deque microbenchmarks; N1 are
// the native Hood-style application benchmarks; Ablation* are the design
// choices DESIGN.md section 5 calls out).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package worksteal

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/analysis"
	"worksteal/internal/apps"
	"worksteal/internal/dag"
	"worksteal/internal/deque"
	"worksteal/internal/experiments"
	"worksteal/internal/sched"
	"worksteal/internal/sim"
	"worksteal/internal/workload"
)

// --- E1-E14: the paper's figures, theorems and claims -----------------------

func BenchmarkE1_Figure1Dag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1Figure1(io.Discard)
	}
}

func BenchmarkE2_GreedySchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2Greedy(io.Discard)
	}
}

func BenchmarkE3_LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3LowerBound(io.Discard)
	}
}

func BenchmarkE4_GreedyBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E4GreedyBound(io.Discard)
	}
}

func BenchmarkE5_Dedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5Dedicated(io.Discard)
	}
}

func BenchmarkE6_Adversaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6Adversaries(io.Discard)
	}
}

func BenchmarkE7_ConstantFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.E5Dedicated(io.Discard)
		pts = append(pts, experiments.E6Adversaries(io.Discard)...)
		experiments.E7Fit(io.Discard, pts)
		if i == 0 {
			if fit, err := analysis.FitBound(pts); err == nil {
				b.ReportMetric(fit.C1, "C1")
				b.ReportMetric(fit.Cinf, "Cinf")
			}
		}
	}
}

func BenchmarkE8_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8Ablations(io.Discard)
	}
}

func BenchmarkE9_Potential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9Potential(io.Discard)
	}
}

func BenchmarkE10_StructuralLemma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E10Structural(io.Discard)
	}
}

// --- D1: Figure 5 deque microbenchmarks -------------------------------------

func BenchmarkDequePushPopBottom(b *testing.B) {
	for _, impl := range []string{"abp", "mutex"} {
		b.Run(impl, func(b *testing.B) {
			var d deque.Dequer[int]
			if impl == "abp" {
				d = deque.NewWithCapacity[int](1 << 10)
			} else {
				d = deque.NewMutexWithCapacity[int](1 << 10)
			}
			v := 7
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.PushBottom(&v)
				if d.PopBottom() == nil {
					b.Fatal("lost item")
				}
			}
		})
	}
}

func BenchmarkDequeOwnerVsThieves(b *testing.B) {
	for _, impl := range []string{"abp", "mutex"} {
		b.Run(impl, func(b *testing.B) {
			var d deque.Dequer[int]
			if impl == "abp" {
				d = deque.New[int]()
			} else {
				d = deque.NewMutex[int]()
			}
			stop := make(chan struct{})
			var stolen atomic.Int64
			for t := 0; t < 2; t++ {
				go func() {
					for {
						select {
						case <-stop:
							return
						default:
							if d.PopTop() != nil {
								stolen.Add(1)
							}
						}
					}
				}()
			}
			v := 3
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.PushBottom(&v)
				d.PopBottom()
			}
			b.StopTimer()
			close(stop)
			b.ReportMetric(float64(stolen.Load())/float64(b.N), "stolen/op")
		})
	}
}

func BenchmarkDequeStealThroughput(b *testing.B) {
	d := deque.NewWithCapacity[int](1 << 16)
	vals := make([]int, 1<<16)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if d.PopTop() == nil {
				// Refill opportunistically; only one goroutine's pushes
				// matter for throughput measurement purposes.
				for j := 0; j < 64 && d.PushBottom(&vals[j]); j++ {
				}
			}
			i++
		}
	})
}

// --- N1: native Hood-style application benchmarks ---------------------------

func fibSerialBench(n int) int {
	if n < 2 {
		return n
	}
	return fibSerialBench(n-1) + fibSerialBench(n-2)
}

func fibParBench(w *sched.Worker, n, cutoff int) int {
	if n < cutoff {
		return fibSerialBench(n)
	}
	a, c := sched.Join2(w,
		func(w2 *sched.Worker) int { return fibParBench(w2, n-1, cutoff) },
		func(w2 *sched.Worker) int { return fibParBench(w2, n-2, cutoff) })
	return a + c
}

// BenchmarkNativeFib is fib(22) forking down to n = 10: 609 forks per run,
// two allocations each (the Future, which is the task, and the caller's
// closure), about 1.2k allocs/op with -benchmem.
func BenchmarkNativeFib(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := sched.New(sched.Config{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var got int
				p.Run(func(w *sched.Worker) { got = fibParBench(w, 22, 10) })
				if got != 17711 {
					b.Fatalf("fib(22) = %d", got)
				}
			}
		})
	}
}

func BenchmarkNativeParallelFor(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := sched.New(sched.Config{Workers: workers})
			data := make([]float64, 1<<16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(func(w *sched.Worker) {
					sched.ParallelFor(w, 0, len(data), 1<<10, func(j int) {
						data[j] = float64(j) * 1.0001
					})
				})
			}
		})
	}
}

func BenchmarkNativeGraphRun(b *testing.B) {
	graphs := map[string]*dag.Graph{
		"fib16": workload.FibDag(16),
		"grid":  workload.Grid(32, 64),
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := sched.RunGraph(sched.GraphConfig{Graph: g, Workers: workers,
						NodeWork: 50, Seed: int64(i + 1)})
					if res.NodesExecuted != int64(g.NumNodes()) {
						b.Fatal("incomplete")
					}
				}
			})
		}
	}
}

// BenchmarkNativeMultiprogrammed emulates multiprogramming: P workers on a
// single shared processor slot (the Go scheduler as kernel). The paper's
// bound predicts the cost of extra workers is only the Tinf*P/P_A term.
func BenchmarkNativeMultiprogrammed(b *testing.B) {
	g := workload.FibDag(14)
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := sched.RunGraph(sched.GraphConfig{Graph: g, Workers: workers,
					NodeWork: 100, Seed: int64(i + 1)})
				if res.NodesExecuted != int64(g.NumNodes()) {
					b.Fatal("incomplete")
				}
			}
		})
	}
}

// --- Ablation benchmarks for the design choices in DESIGN.md §5 -------------

// BenchmarkAblationDeque compares ABP and mutex deques inside the native
// graph runner (design choice 1).
func BenchmarkAblationDeque(b *testing.B) {
	g := workload.FibDag(15)
	for _, kind := range []sched.DequeKind{sched.DequeABP, sched.DequeMutex} {
		name := "abp"
		if kind == sched.DequeMutex {
			name = "mutex"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.RunGraph(sched.GraphConfig{Graph: g, Workers: 4, Deque: kind,
					NodeWork: 20, Seed: int64(i + 1)})
			}
		})
	}
}

// BenchmarkAblationYield compares yield vs no-yield in the native runner
// (design choice 2). The dramatic version of this ablation — unbounded
// starvation — lives in the simulator (E8): here idle pool workers park
// whether or not they yield, and Go's preemptive runtime bounds the rest.
func BenchmarkAblationYield(b *testing.B) {
	g := workload.FibDag(15)
	for _, disable := range []bool{false, true} {
		name := "yield"
		if disable {
			name = "noyield"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.RunGraph(sched.GraphConfig{Graph: g, Workers: 8, DisableYield: disable,
					NodeWork: 20, Seed: int64(i + 1)})
			}
		})
	}
}

// BenchmarkAblationSpawnOrder compares run-child against run-parent in the
// simulator (design choice 3; the paper proves the bounds for both).
func BenchmarkAblationSpawnOrder(b *testing.B) {
	g := workload.FibDag(14)
	for _, pol := range []sim.SpawnPolicy{sim.RunChild, sim.RunParent} {
		b.Run(pol.String(), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				res := sim.NewEngine(sim.Config{Graph: g, P: 4,
					Kernel: sim.DedicatedKernel{NumProcs: 4}, Policy: pol, Seed: int64(i + 1)}).Run()
				if !res.Completed {
					b.Fatal("incomplete")
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "simsteps/op")
		})
	}
}

// BenchmarkAblationRoundLength sweeps the round instruction budget (design
// choice 4: the paper's 2C..3C window).
func BenchmarkAblationRoundLength(b *testing.B) {
	g := workload.FibDag(14)
	for _, c := range []int{4, 14, 56} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				res := sim.NewEngine(sim.Config{Graph: g, P: 4,
					Kernel: sim.DedicatedKernel{NumProcs: 4}, Seed: int64(i + 1),
					InstrLo: 2 * c, InstrHi: 3 * c}).Run()
				if !res.Completed {
					b.Fatal("incomplete")
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "simsteps/op")
		})
	}
}

// --- sanity: the E-suite completes under `go test` too ----------------------

func TestExperimentSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	experiments.All(io.Discard)
}

func BenchmarkE11_RelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11RelatedWork(io.Discard)
	}
}

// BenchmarkAblationVictim compares random victims (the paper's policy,
// required by the balls-and-bins analysis) against deterministic
// round-robin rotation (design choice 5).
func BenchmarkAblationVictim(b *testing.B) {
	g := workload.FibDag(14)
	for _, pol := range []sim.VictimPolicy{sim.VictimRandom, sim.VictimRoundRobin} {
		b.Run(pol.String(), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				res := sim.NewEngine(sim.Config{Graph: g, P: 8,
					Kernel: sim.ConstBenign(8, 4), Victim: pol, Seed: int64(i + 1)}).Run()
				if !res.Completed {
					b.Fatal("incomplete")
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "simsteps/op")
		})
	}
}

// BenchmarkIdleOverhead measures what the pool's idle workers cost while a
// single long serial task holds the run: with the parking lifecycle (the
// default) steal attempts per op stay near the park threshold, while the
// spinning ablation (DisableParking, the paper's literal Figure 3 loop)
// accumulates millions — one full core per idle worker. The wall-clock
// column should be ~identical (both wait out the same sleep); the
// stealattempts/op and yields/op metrics are the CPU-burn proxies.
func BenchmarkIdleOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"parking", false},
		{"spinning", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p := sched.New(sched.Config{Workers: 8, DisableParking: mode.disable})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(func(w *sched.Worker) { time.Sleep(5 * time.Millisecond) })
			}
			b.StopTimer()
			s := p.Stats()
			b.ReportMetric(float64(s.StealAttempts)/float64(b.N), "stealattempts/op")
			b.ReportMetric(float64(s.Yields)/float64(b.N), "yields/op")
			b.ReportMetric(float64(s.Parks)/float64(b.N), "parks/op")
		})
	}
}

// BenchmarkNativeQuicksort exercises the apps kernels end to end.
func BenchmarkNativeQuicksort(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]int, 1<<17)
	for i := range src {
		src[i] = rng.Int()
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := sched.New(sched.Config{Workers: workers})
			data := make([]int, len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, src)
				p.Run(func(w *sched.Worker) { apps.Quicksort(w, data, 1024) })
			}
		})
	}
}

func BenchmarkNativeIntegrate(b *testing.B) {
	p := sched.New(sched.Config{})
	for i := 0; i < b.N; i++ {
		p.Run(func(w *sched.Worker) {
			apps.Integrate(w, math.Sin, 0, 3, 1e-9)
		})
	}
}

func BenchmarkE12_SpeedupVsPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E12SpeedupVsPA(io.Discard)
	}
}

func BenchmarkE13_Schedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E13Schedulers(io.Discard)
	}
}

func BenchmarkE14_Space(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E14Space(io.Discard)
	}
}
