package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"worksteal/internal/fault"
	"worksteal/internal/sched"
	"worksteal/internal/table"
)

// chaosPoint is the failpoint the sweep freezes workers at. Loop-level
// steals only, so the root task helping inside Group.Wait can never freeze
// itself — it is the one that must stay alive to resume the others.
const chaosPoint = "sched.loop.beforeSteal"

// chaos is the native fault-injection experiment (the dynamic mirror of the
// simulator's adversary experiment E8). It prints the compiled-in failpoint
// catalog, arms any user-supplied fault spec (-faults flag or the
// ABP_FAULTS environment variable), and runs a throughput sweep against the
// number of worker goroutines suspended indefinitely mid-steal: the paper's
// non-blocking claim, quantified — k frozen workers cost at most their k
// processors and never wedge the rest.
func chaos(reps int, spec string, showStats bool) {
	fmt.Println("registered failpoints (arm via -faults or ABP_FAULTS, grammar in internal/fault/spec.go):")
	for _, pt := range fault.Catalog() {
		fmt.Printf("  %-28s %s\n", pt.Name, pt.Desc)
	}
	fmt.Println()

	if spec == "" {
		spec = os.Getenv(fault.EnvVar)
	}
	if spec != "" {
		if err := fault.EnableSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "abpbench: %v\n", err)
			os.Exit(2)
		}
		defer fault.Reset()
		fmt.Printf("faults armed: %s\n\n", spec)
	}

	const workers = 8
	const tasks = 4000
	const taskWork = 2000
	tb := table.New(fmt.Sprintf("chaos: throughput vs workers frozen mid-steal (workers=%d, tasks=%d, GOMAXPROCS=%d)",
		workers, tasks, runtime.GOMAXPROCS(0)),
		"frozen", "time", "vs 0 frozen", "tasks/ms")
	var base time.Duration
	for _, frozen := range []int{0, 1, 2, 4, 7} {
		p := sched.New(sched.Config{Workers: workers})
		var best time.Duration
		for r := 0; r < reps; r++ {
			if frozen > 0 {
				fault.Enable(chaosPoint, fault.Rule{Action: fault.ActionSuspend, Times: frozen})
			}
			start := time.Now()
			p.Run(func(w *sched.Worker) {
				g := sched.NewGroup()
				for i := 0; i < tasks; i++ {
					g.Spawn(w, func(*sched.Worker) { spin(taskWork) })
				}
				g.Wait(w)
				// Every task is done; release the frozen workers so the run
				// can terminate.
				fault.Resume(chaosPoint)
			})
			d := time.Since(start)
			fault.Disable(chaosPoint)
			if r == 0 || d < best {
				best = d
			}
		}
		if frozen == 0 {
			base = best
		}
		tb.Row(frozen, best.Round(time.Microsecond), float64(best)/float64(base),
			float64(tasks)/(float64(best)/float64(time.Millisecond)))
		if showStats {
			fmt.Printf("-- stats: frozen=%d\n%s", frozen, p.Stats())
		}
	}
	tb.Render(os.Stdout)
	fmt.Println("A suspended worker costs at most its own processor: the non-blocking deque")
	fmt.Println("lets the rest steal around it (§3.2/§6; E8 is the simulator's version).")
	fmt.Println("The mutex-deque control lives in internal/sched's chaos tests: the same")
	fmt.Println("adversary freezing a thief inside the locked PopTop wedges the whole pool.")
}
