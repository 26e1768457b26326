package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"worksteal/internal/sched"
	"worksteal/internal/table"
)

// The elastic experiment (EXPERIMENTS.md E17) is the paper's P_A(t) story
// measured on the native pool: one long-lived Serve session is resized
// through a ladder of fleet sizes — full, half, quarter, single — with the
// same saturating windowed submission stream running against each, and
// throughput is reported per phase. The paper's bound says execution time
// scales with T1/P_A; under a saturating stream that is the claim that
// throughput tracks the granted processor count, so the recorded figure is
// per-worker time (elapsed × P_A / tasks) — a flat line across the ladder
// when the host grants at least maxW real cores. When it grants fewer (a
// 1-core CI box runs every fleet size at serial speed), the ladder
// collapses toward the core count and the snapshot records that shape
// faithfully. A final churn phase resizes randomly mid-stream — the
// adversarial P_A(t) schedule — and is reported but not gated (its timing
// depends on the random walk); the run then exits through Pool.Drain,
// which must complete with every accepted submission intact.
//
// The -check flag gates the ladder phases against a committed snapshot
// (BENCH_elastic.json) through gate (gate.go). Because the multi-worker
// phases' shape depends on the host's core count, those rows need a baseline
// recorded at the same GOMAXPROCS and read inconclusive without one; the
// single-worker phase — the whole submit/spawn/steal/retire path at serial
// speed, core-count independent — is gated unconditionally.

type elasticPhaseRow struct {
	Phase string `json:"phase"`
	// Workers is P_A during the phase; 0 marks the churn phase, whose
	// fleet size is a random walk.
	Workers     int     `json:"workers"`
	Submissions int64   `json:"submissions"`
	ElapsedNs   int64   `json:"elapsed_ns"`
	TasksPerSec float64 `json:"tasks_per_sec"`
	// PerWorkerNs is the gated figure: aggregate worker-nanoseconds per
	// task (elapsed * P_A / tasks), the inverse of per-worker throughput.
	PerWorkerNs float64 `json:"per_worker_ns_per_task"`
	// RepSpread is how far the phase's reps disagreed: slowest over fastest,
	// minus one. With GOMAXPROCS > 1 a phase needs every core for its whole
	// length, so on a shared host one rep can lose a core to a neighbour;
	// the gate reads the spread to say the phase cannot resolve its budget.
	RepSpread float64 `json:"rep_spread"`
}

type elasticReport struct {
	Experiment string `json:"experiment"`
	benchHost
	MaxWorkers int               `json:"max_workers"`
	Reps       int               `json:"reps"`
	NodeWork   int               `json:"nodework"`
	Phases     []elasticPhaseRow `json:"phases"`
	DrainNs    int64             `json:"drain_ns"`
	Resizes    int64             `json:"resizes"`
	Retired    int64             `json:"workers_retired"`
}

// tasksPerSubmission is the fan-out of one benchmark submission: the root
// plus seven spawned children, each spinning nodeWork iterations.
const tasksPerSubmission = 8

// elasticWindow is each submitter's outstanding-submission cap. A window
// of one would make the stream latency-bound (each submitter waits a full
// submit→wake→run→complete round trip, so throughput tracks the submitter
// count, not the fleet). Sixteen outstanding per submitter keeps a backlog
// in front of every fleet size in the ladder — the offered load is
// constant and saturating, so measured throughput is capacity-bound and
// tracking P_A is exactly what the gate verifies.
const elasticWindow = 16

// elasticPerSubmitter is how many submissions each submitter makes per
// stream: with maxW submitters, the same total in every phase.
const elasticPerSubmitter = 256

// elasticLoad drives the saturating stream: `submitters` goroutines each
// submit elasticPerSubmitter fan-out submissions, never holding more than
// elasticWindow outstanding, and wait out the stragglers. Returns the wall
// time for the whole stream.
func elasticLoad(p *sched.Pool, submitters, nodeWork int) time.Duration {
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(submitters)
	for s := 0; s < submitters; s++ {
		go func() {
			defer wg.Done()
			<-release
			window := make([]*sched.Handle, 0, elasticWindow)
			for i := 0; i < elasticPerSubmitter; i++ {
				for {
					h, err := p.Submit(func(w *sched.Worker) {
						for j := 0; j < tasksPerSubmission-1; j++ {
							w.Spawn(func(*sched.Worker) { spin(nodeWork) })
						}
						spin(nodeWork)
					})
					if err == nil {
						window = append(window, h)
						break
					}
					runtime.Gosched() // ErrOverloaded: shed and retry
				}
				if len(window) == elasticWindow {
					if err := window[0].Wait(); err != nil {
						panic(err)
					}
					window = window[1:]
				}
			}
			for _, h := range window {
				if err := h.Wait(); err != nil {
					panic(err)
				}
			}
		}()
	}
	start := time.Now()
	close(release)
	wg.Wait()
	return time.Since(start)
}

// elasticPhase drives one saturated phase at the given fleet size and
// returns its best-of-reps row. The submitter count and submission total
// are the same for every phase (they depend on maxW, not pa), so the only
// variable across the ladder is the granted fleet — the paper's P_A.
func elasticPhase(p *sched.Pool, name string, pa, maxW, nodeWork, reps int) elasticPhaseRow {
	if err := p.Resize(pa); err != nil {
		panic(err)
	}
	// Let the fleet settle on the target before timing: grows are
	// near-instant, shrinks complete at worker safe points.
	for p.Stats().ActiveWorkers != int64(pa) {
		time.Sleep(100 * time.Microsecond)
	}
	subs := int64(maxW * elasticPerSubmitter)
	var bestD, worstD time.Duration
	for r := 0; r < reps; r++ {
		d := elasticLoad(p, maxW, nodeWork)
		if r == 0 || d < bestD {
			bestD = d
		}
		worstD = max(worstD, d)
	}
	tasks := subs * tasksPerSubmission
	return elasticPhaseRow{
		Phase:       name,
		Workers:     pa,
		Submissions: subs,
		ElapsedNs:   int64(bestD),
		TasksPerSec: float64(tasks) / bestD.Seconds(),
		PerWorkerNs: float64(bestD) * float64(pa) / float64(tasks),
		RepSpread:   float64(worstD)/float64(bestD) - 1,
	}
}

// elasticChurn is the adversarial P_A(t) phase: a background resizer walks
// the fleet randomly across [1, maxW] every few hundred microseconds while
// the same saturating stream runs. Reported, not gated.
func elasticChurn(p *sched.Pool, maxW, nodeWork, reps int) elasticPhaseRow {
	rng := rand.New(rand.NewSource(0xE1A5))
	subs := int64(maxW * elasticPerSubmitter)
	var bestD time.Duration
	for r := 0; r < reps; r++ {
		stopResizer := make(chan struct{})
		resizerDone := make(chan struct{})
		go func() {
			defer close(resizerDone)
			for {
				select {
				case <-stopResizer:
					return
				default:
				}
				if err := p.Resize(1 + rng.Intn(maxW)); err != nil {
					panic(err)
				}
				//abp:wait-ignore the sleep IS the workload: it paces the adversarial resize schedule, and nothing ever signals the resizer — stopResizer is polled at the top of the loop within one period
				time.Sleep(time.Duration(200+rng.Intn(400)) * time.Microsecond)
			}
		}()
		d := elasticLoad(p, maxW, nodeWork)
		close(stopResizer)
		<-resizerDone
		if r == 0 || d < bestD {
			bestD = d
		}
	}
	tasks := subs * tasksPerSubmission
	return elasticPhaseRow{
		Phase:       "churn",
		Workers:     0,
		Submissions: subs,
		ElapsedNs:   int64(bestD),
		TasksPerSec: float64(tasks) / bestD.Seconds(),
	}
}

// elasticExperiment runs the resize ladder plus the churn phase on one
// Serve session, exits it through a graceful drain, renders the table, and
// hands the report to finish with the gated phases.
func elasticExperiment(nodeWork, reps int, outPath, checkPath string) {
	maxW := runtime.GOMAXPROCS(0)
	if maxW < 4 {
		maxW = 4
	}
	// Ten times the dag experiments' per-node spin: a task must cost far
	// more than its share of the submission plumbing (handle completion,
	// park/wake latency, submitter scheduling) or the stream measures that
	// plumbing instead of fleet capacity and every P_A looks the same.
	nodeWork *= 10
	rep := elasticReport{
		Experiment: "elastic",
		benchHost:  benchHost{GOMAXPROCS: runtime.GOMAXPROCS(0), CalibrationNs: benchCalibrate(reps)},
		MaxWorkers: maxW,
		Reps:       reps,
		NodeWork:   nodeWork,
	}

	p := sched.New(sched.Config{Workers: maxW, MaxWorkers: maxW, ParkThreshold: 2, InjectorCapacity: 1 << 15})
	serveDone := make(chan error, 1)
	go func() { serveDone <- p.Serve(context.Background()) }()
	for {
		h, err := p.Submit(func(*sched.Worker) {})
		if err == nil {
			if werr := h.Wait(); werr != nil {
				panic(werr)
			}
			break
		}
		runtime.Gosched()
	}
	// Untimed warm-up. A microVM host can leave a new process on one core
	// for most of its first second however many it asks for (two plain
	// spinning goroutines take 2x as long over that stretch), which the
	// first phase — the one that needs every core — would record as its own.
	for start := time.Now(); time.Since(start) < time.Second; {
		elasticLoad(p, maxW, nodeWork)
	}

	quarter := maxW / 4
	if quarter < 1 {
		quarter = 1
	}
	half := maxW / 2
	if half < 1 {
		half = 1
	}
	phases := []struct {
		name string
		pa   int
	}{{"full", maxW}, {"half", half}, {"quarter", quarter}, {"single", 1}}
	tb := table.New(fmt.Sprintf("elastic: saturated-stream throughput vs P_A (max=%d, nodework=%d, best of %d reps)",
		maxW, nodeWork, reps), "phase", "P_A", "submissions", "time", "tasks/s", "ns/task/worker")
	for _, ph := range phases {
		row := elasticPhase(p, ph.name, ph.pa, maxW, nodeWork, reps)
		rep.Phases = append(rep.Phases, row)
		tb.Row(row.Phase, row.Workers, row.Submissions, time.Duration(row.ElapsedNs).Round(time.Microsecond),
			fmt.Sprintf("%.0f", row.TasksPerSec), fmt.Sprintf("%.1f", row.PerWorkerNs))
	}
	churn := elasticChurn(p, maxW, nodeWork, reps)
	rep.Phases = append(rep.Phases, churn)
	tb.Row(churn.Phase, "1..max", churn.Submissions, time.Duration(churn.ElapsedNs).Round(time.Microsecond),
		fmt.Sprintf("%.0f", churn.TasksPerSec), "-")
	tb.Render(os.Stdout)

	// Exit through the graceful path: every accepted submission has already
	// completed (the loop is closed), so the drain must report nil and Serve
	// must return nil.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	dstart := time.Now()
	if err := p.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "abpbench: elastic drain: %v\n", err)
		os.Exit(1)
	}
	rep.DrainNs = int64(time.Since(dstart))
	if err := <-serveDone; err != nil {
		fmt.Fprintf(os.Stderr, "abpbench: Serve after drain: %v\n", err)
		os.Exit(1)
	}
	s := p.Stats()
	rep.Resizes, rep.Retired = s.Resizes, s.WorkersRetired
	if s.TasksDropped != 0 {
		fmt.Fprintf(os.Stderr, "abpbench: elastic run dropped %d tasks\n", s.TasksDropped)
		os.Exit(1)
	}
	fmt.Printf("drain: %v; resizes=%d workers-retired=%d; per-worker throughput is the gated column\n",
		time.Duration(rep.DrainNs).Round(time.Microsecond), rep.Resizes, rep.Retired)

	finish(outPath, checkPath, rep)
}

// elasticGate judges the ladder phases' per-worker ns/task against a
// baseline. The churn phase (Workers == 0) is reported, not gated.
func elasticGate(cur, base elasticReport) (bool, map[string]string) {
	baseline := map[string]elasticPhaseRow{}
	for _, row := range base.Phases {
		baseline[row.Phase] = row
	}
	var rows []gateRow
	for _, row := range cur.Phases {
		if row.Workers == 0 {
			continue
		}
		rows = append(rows, gateRow{
			name:           "elastic/" + row.Phase + " per-worker ns/task",
			cur:            row.PerWorkerNs,
			base:           baseline[row.Phase].PerWorkerNs,
			repSpread:      row.RepSpread,
			needsSameProcs: row.Workers > 1,
		})
	}
	return gate(cur.benchHost, base.benchHost, rows)
}
