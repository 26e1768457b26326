// Package worksteal's root benchmark harness: one benchmark per simulator
// experiment in DESIGN.md's per-experiment index (E1-E14 regenerate the
// paper's figure/table analogues), the simulator ablations of the design
// choices DESIGN.md section 5 calls out, and the internal/apps kernels. The
// native Pool path and the deque are measured by benchmark/ (BENCHMARK.json;
// --trace 1 adds the per-layer rows, deque.pushpop_ns among them).
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
	"testing"

	"worksteal/internal/analysis"
	"worksteal/internal/apps"
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

// --- Simulator ablations for the design choices in DESIGN.md §5 -------------

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
