package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"worksteal/internal/dag"
	"worksteal/internal/deque"
	"worksteal/internal/sched"
	"worksteal/internal/table"
	"worksteal/internal/workload"
)

// The hotpath experiment times the deque owner operations
// (PushBottom/PopBottom, the paper's Figure 5 fast path) and the thief's
// PopTop CAS for both lock-free deques, then runs a full spawn-tree graph
// on each so the microbenchmark numbers can be read against end-to-end
// effect.
//
// The -check flag turns the run into a regression gate: push/pop ns/op is
// compared against a previously written snapshot (BENCH_hotpath.json) and
// the process exits 1 if any deque slowed by more than 10%. A column whose
// own reps disagree by more than that cannot resolve such a difference: it
// is reported inconclusive and does not fail the gate.

type hotpathOpRow struct {
	Deque     string  `json:"deque"` // abp | chaselev
	PushPopNs float64 `json:"pushpop_ns_per_op"`
	StealNs   float64 `json:"steal_ns_per_op"`
	// MultiStealNs is the contended counterpart of StealNs: GOMAXPROCS
	// thieves racing PopTop on one deque, aggregate thief time per
	// successful steal. This is the column the cache-line padding (PR 8,
	// abplayout) is accountable to — false sharing between the CAS'd
	// top/age word and its neighbors shows up here, not in the
	// single-threaded columns.
	MultiStealNs float64 `json:"multisteal_ns_per_op"`
}

// hotpathContended reports the multi-producer submission measurement: the
// public Submit path (shardRR rotation, injector reservation CAS, parked
// scan) under GOMAXPROCS concurrent producers, aggregate producer time
// per accepted submission. A pointer field in the report so pre-PR-8
// baselines unmarshal it as nil and the gate skips it.
type hotpathContended struct {
	Thieves   int     `json:"thieves"`
	Producers int     `json:"producers"`
	SubmitNs  float64 `json:"submit_ns_per_op"`
	// SubmitRepSpread is how far the reps of the run disagreed: slowest
	// rep over fastest rep, minus one (each rep already the best of its
	// waves). The producers contend with the workers for the same cores,
	// so on a small host this column swings by more than the gate's budget
	// between identical runs; the gate reads the spread to say so.
	SubmitRepSpread float64 `json:"submit_rep_spread"`
}

type hotpathGraphRow struct {
	Deque       string  `json:"deque"` // abp | chaselev | stdlib (the goroutines+channel contender)
	ElapsedNs   int64   `json:"elapsed_ns"`
	Steals      int64   `json:"steals"`
	TasksPerSec float64 `json:"tasks_per_sec"`
}

type hotpathReport struct {
	Experiment string `json:"experiment"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Reps       int    `json:"reps"`
	// CalibrationNs is the ns/op of a fixed serial spin measured in the
	// same run: the regression gate compares push/pop ns normalized by it,
	// so a snapshot from one machine remains a usable baseline on another
	// (and uniform container slowdowns cancel out).
	CalibrationNs float64           `json:"calibration_ns_per_op"`
	Ops           []hotpathOpRow    `json:"ops"`
	Contended     *hotpathContended `json:"contended,omitempty"`
	Graph         []hotpathGraphRow `json:"graph"`
}

// benchCalibrate times a fixed xorshift spin: a machine-speed yardstick
// with the same in-core, no-memory-traffic profile as the deque fast path.
func benchCalibrate(reps int) float64 {
	const iters = 1 << 22
	best := 0.0
	for r := 0; r < reps; r++ {
		x := uint64(2463534242)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(start)) / float64(iters)
		if x == 0 { // defeat dead-code elimination
			panic("xorshift reached zero")
		}
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// ownerDeque is the owner-side surface shared by both lock-free deques.
type ownerDeque interface {
	PushBottom(*int) bool
	PopBottom() *int
	PopTop() *int
}

func newHotpathDeque(kind string, capacity int) ownerDeque {
	switch kind {
	case "abp":
		return deque.NewWithCapacity[int](capacity)
	case "chaselev":
		return deque.NewChaseLev[int]()
	}
	panic("unknown deque kind " + kind)
}

// benchPushPop times the owner's uncontended push/pop cycle in batches of
// 64 so both the push store->load and the pop store(bot)->load(age) Dekker
// handshake run against a non-empty deque. Best of reps wins.
//
//abp:owner the benchmark goroutine is the deque's only accessor
func benchPushPop(kind string, reps int) float64 {
	const batch = 64
	const iters = 1 << 14 // 64 * 16384 = ~1M pushes and ~1M pops per rep
	node := new(int)
	best := 0.0
	for r := 0; r < reps; r++ {
		d := newHotpathDeque(kind, 1<<10)
		start := time.Now()
		for i := 0; i < iters; i++ {
			for j := 0; j < batch; j++ {
				if !d.PushBottom(node) {
					panic("hotpath: push refused below capacity")
				}
			}
			for j := 0; j < batch; j++ {
				if d.PopBottom() == nil {
					panic("hotpath: owner pop lost a node")
				}
			}
		}
		ns := float64(time.Since(start)) / float64(2*batch*iters)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// benchSteal times the thief's PopTop CAS against a pre-filled deque.
//
//abp:owner the benchmark goroutine fills the deque it then steals from
func benchSteal(kind string, reps int) float64 {
	const n = 1 << 10
	node := new(int)
	best := 0.0
	for r := 0; r < reps; r++ {
		var total time.Duration
		const rounds = 1 << 10
		for i := 0; i < rounds; i++ {
			// Fresh deque per round: the ABP array is not circular, so a
			// fully stolen deque cannot be refilled from the bottom. The
			// allocation and the refill stay outside the timed section.
			d := newHotpathDeque(kind, n)
			for j := 0; j < n; j++ {
				if !d.PushBottom(node) {
					panic("hotpath: push refused below capacity")
				}
			}
			start := time.Now()
			for j := 0; j < n; j++ {
				if d.PopTop() == nil {
					panic("hotpath: steal lost a node")
				}
			}
			total += time.Since(start)
		}
		ns := float64(total) / float64(n*rounds)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// benchStealContended times the thieves' PopTop CAS with real contention:
// GOMAXPROCS (at least two) thief goroutines race on one pre-filled deque
// until every node is stolen. The reported figure is aggregate thief time
// per successful steal — wall time times the thief count divided by the
// steal count — so it prices both the CAS retries and any cache-line
// traffic the deque's layout induces. The deque is filled by this
// goroutine before the thieves start (the WaitGroup/channel pair is the
// publication edge), and no owner operation runs concurrently: pure
// thief-vs-thief arbitration, the §3.2 popTop contention.
//
//abp:owner the benchmark goroutine fills the deque before any thief starts
func benchStealContended(kind string, reps int) (float64, int) {
	const n = 1 << 14
	thieves := runtime.GOMAXPROCS(0)
	if thieves < 2 {
		thieves = 2
	}
	// Several timed rounds per rep, best round wins: one contended round
	// lasts well under a scheduler timeslice, so whether a preemption
	// lands inside it is a coin flip — minimizing over rounds measures
	// the deque, not the flip.
	const rounds = 4
	node := new(int)
	best := 0.0
	for r := 0; r < reps*rounds; r++ {
		d := newHotpathDeque(kind, n)
		for j := 0; j < n; j++ {
			if !d.PushBottom(node) {
				panic("hotpath: push refused below capacity")
			}
		}
		var stolen atomic.Int64
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(thieves)
		for t := 0; t < thieves; t++ {
			//abp:ignore ownerescape the thief goroutines only call PopTop (the thief op) and join before the deque is dropped
			go func() {
				defer wg.Done()
				<-release
				for stolen.Load() < n {
					if d.PopTop() != nil {
						stolen.Add(1)
					}
				}
			}()
		}
		start := time.Now()
		close(release)
		wg.Wait()
		ns := float64(time.Since(start)) * float64(thieves) / float64(n)
		if s := stolen.Load(); s != n {
			panic(fmt.Sprintf("hotpath: contended steal lost nodes: %d of %d", s, n))
		}
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best, thieves
}

// benchSubmitContended times the public submission path under producer
// contention: a Pool in Serve mode, GOMAXPROCS producers each submitting
// no-op tasks through Submit while the workers drain them concurrently.
// Reported as aggregate producer time per accepted submission. The
// injector capacity is raised so backpressure rejects stay exceptional
// (an ErrOverloaded is retried after a yield and its cost stays in the
// measurement — shedding time is submission time). Also returns the spread
// between the reps (hotpathContended.SubmitRepSpread).
func benchSubmitContended(reps int) (best, spread float64, producers int) {
	producers = runtime.GOMAXPROCS(0)
	if producers < 2 {
		producers = 2
	}
	const total = 1 << 14
	per := total / producers
	worst := 0.0 // the slowest rep, each rep taken at its best wave
	for r := 0; r < reps; r++ {
		repBest := 0.0
		p := sched.New(sched.Config{
			Workers:          runtime.GOMAXPROCS(0),
			InjectorCapacity: 1 << 15,
		})
		ctx, cancel := context.WithCancel(context.Background())
		serveDone := make(chan error, 1)
		go func() { serveDone <- p.Serve(ctx) }()
		// Wait until the pool is accepting: the first successful probe
		// submission marks the serving flag visible to this goroutine.
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
		// Several timed waves per serve session, best wave wins (same
		// preemption-noise reasoning as benchStealContended).
		const waves = 4
		for w := 0; w < waves; w++ {
			handles := make([][]*sched.Handle, producers)
			release := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(producers)
			for i := 0; i < producers; i++ {
				go func(i int) {
					defer wg.Done()
					hs := make([]*sched.Handle, 0, per)
					<-release
					for j := 0; j < per; j++ {
						for {
							h, err := p.Submit(func(*sched.Worker) {})
							if err == nil {
								hs = append(hs, h)
								break
							}
							runtime.Gosched() // ErrOverloaded: shed and retry
						}
					}
					handles[i] = hs
				}(i)
			}
			start := time.Now()
			close(release)
			wg.Wait()
			ns := float64(time.Since(start)) * float64(producers) / float64(per*producers)
			for _, hs := range handles {
				for _, h := range hs {
					if err := h.Wait(); err != nil {
						panic(err)
					}
				}
			}
			if w == 0 || ns < repBest {
				repBest = ns
			}
		}
		cancel()
		if err := <-serveDone; err != context.Canceled {
			panic(err)
		}
		if r == 0 || repBest < best {
			best = repBest
		}
		worst = max(worst, repBest)
	}
	return best, worst/best - 1, producers
}

// stdlibSpin mirrors sched's per-node synthetic work for the stdlib
// contender (same xorshift loop, same dead-code-elimination sink).
var stdlibSpinSink atomic.Uint64

func stdlibSpin(n int) {
	if n <= 0 {
		return
	}
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	stdlibSpinSink.Store(x)
}

// stdlibGraphRun executes the dag with the obvious non-stealing Go
// idiom: GOMAXPROCS worker goroutines ranging over one buffered channel
// of ready nodes, join counters enabling each node exactly once. This is
// the contender baseline the paper's per-processor-deque design is
// arguing against — every enqueue and dequeue crosses the same shared
// channel. The channel's capacity is the node count, so enabling sends
// never block; the worker that executes the final node closes the
// channel (every node's enabling sends happen before its own counted
// completion, so no send can follow the close).
func stdlibGraphRun(g *dag.Graph, workers, nodeWork int) time.Duration {
	n := g.NumNodes()
	remaining := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		remaining[i].Store(int32(g.InDegree(dag.NodeID(i))))
	}
	ready := make(chan dag.NodeID, n)
	ready <- g.Root()
	var executed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for u := range ready {
				stdlibSpin(nodeWork)
				for _, e := range g.Succs(u) {
					if remaining[e.To].Add(-1) == 0 {
						ready <- e.To
					}
				}
				if executed.Add(1) == int64(n) {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if got := executed.Load(); got != int64(n) {
		panic(fmt.Sprintf("hotpath: stdlib run executed %d of %d nodes", got, n))
	}
	return elapsed
}

// stdlibGraphRow is the GOMAXPROCS-matched goroutines+channel contender
// for the fib table: same dag, same per-node spin, no work stealing.
func stdlibGraphRow(nodeWork, reps int) hotpathGraphRow {
	g := workload.FibDag(18)
	workers := runtime.GOMAXPROCS(0)
	var bestD time.Duration
	for r := 0; r < reps; r++ {
		d := stdlibGraphRun(g, workers, nodeWork)
		if r == 0 || d < bestD {
			bestD = d
		}
	}
	return hotpathGraphRow{
		Deque:       "stdlib",
		ElapsedNs:   int64(bestD),
		Steals:      0,
		TasksPerSec: float64(g.Work()) / bestD.Seconds(),
	}
}

// hotpathGraph runs the end-to-end spawn tree on one deque and reports
// best-of-reps wall time.
func hotpathGraph(kindName string, kind sched.DequeKind, nodeWork, reps int) hotpathGraphRow {
	g := workload.FibDag(18)
	res := bestGraphRun(sched.GraphConfig{
		Graph:    g,
		Workers:  runtime.GOMAXPROCS(0),
		NodeWork: nodeWork,
		Deque:    kind,
	}, reps)
	return hotpathGraphRow{
		Deque:       kindName,
		ElapsedNs:   int64(res.Elapsed),
		Steals:      res.Steals,
		TasksPerSec: float64(g.Work()) / res.Elapsed.Seconds(),
	}
}

// hotpathExperiment measures both deques, renders the tables, writes the
// JSON snapshot, and — when checkPath names a previous snapshot — enforces
// the 10% push/pop regression gate against it.
func hotpathExperiment(nodeWork, reps int, outPath, checkPath string) {
	// In gate mode (-check without an explicit -out) the committed snapshot
	// is the baseline being compared against, so it must not be rewritten
	// by the same run that judges it.
	writeOut := true
	if outPath == "" {
		if checkPath != "" {
			writeOut = false
		}
		outPath = "BENCH_hotpath.json"
	}
	rep := hotpathReport{
		Experiment:    "hotpath",
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Reps:          reps,
		CalibrationNs: benchCalibrate(reps),
	}

	thieves := 0
	otb := table.New(fmt.Sprintf("deque hot path (best of %d reps)", reps),
		"deque", "push+pop ns/op", "steal ns/op", "contended steal ns/op")
	for _, kind := range []string{"abp", "chaselev"} {
		row := hotpathOpRow{
			Deque:     kind,
			PushPopNs: benchPushPop(kind, reps),
			StealNs:   benchSteal(kind, reps),
		}
		row.MultiStealNs, thieves = benchStealContended(kind, reps)
		rep.Ops = append(rep.Ops, row)
		otb.Row(kind, fmt.Sprintf("%.2f", row.PushPopNs), fmt.Sprintf("%.2f", row.StealNs),
			fmt.Sprintf("%.2f", row.MultiStealNs))
	}
	otb.Render(os.Stdout)

	submitNs, submitSpread, producers := benchSubmitContended(reps)
	rep.Contended = &hotpathContended{Thieves: thieves, Producers: producers, SubmitNs: submitNs, SubmitRepSpread: submitSpread}
	fmt.Printf("contended submit: %.2f ns/op aggregate across %d producers, reps within %.0f%% (%d thieves in the steal column)\n",
		submitNs, producers, 100*submitSpread, thieves)

	gtb := table.New(fmt.Sprintf("end to end: fib(18) spawn tree (workers=%d, nodework=%d)",
		runtime.GOMAXPROCS(0), nodeWork),
		"deque", "time", "steals", "tasks/s")
	for _, k := range []struct {
		name string
		kind sched.DequeKind
	}{{"abp", sched.DequeABP}, {"chaselev", sched.DequeChaseLev}} {
		row := hotpathGraph(k.name, k.kind, nodeWork, reps)
		rep.Graph = append(rep.Graph, row)
		gtb.Row(row.Deque, time.Duration(row.ElapsedNs).Round(time.Microsecond),
			row.Steals, fmt.Sprintf("%.0f", row.TasksPerSec))
	}
	// The contender: same dag, same spin, GOMAXPROCS goroutines draining
	// one shared channel instead of per-worker deques. Published alongside
	// the stealing rows (graph rows are reported, not gated).
	stdRow := stdlibGraphRow(nodeWork, reps)
	rep.Graph = append(rep.Graph, stdRow)
	gtb.Row(stdRow.Deque, time.Duration(stdRow.ElapsedNs).Round(time.Microsecond),
		stdRow.Steals, fmt.Sprintf("%.0f", stdRow.TasksPerSec))
	gtb.Render(os.Stdout)

	if writeOut {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "abpbench: marshal report: %v\n", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(outPath, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "abpbench: write %s: %v\n", outPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", outPath)
	}

	if checkPath != "" && !hotpathCheck(rep, checkPath) {
		os.Exit(1)
	}
}

// hotpathCheck compares the fresh measurements — single-threaded push/pop
// plus the contended multi-thief steal and multi-producer submit columns —
// against a committed snapshot and reports pairs that slowed by more than
// the 10% budget. Both sides are normalized by their own run's calibration
// spin, so the comparison survives a change of machine; a snapshot without
// calibration falls back to raw ns. Missing baseline columns are skipped
// (new configurations are not regressions), which is also what carries the
// gate across the snapshot transition that introduced the contended
// columns. A column that carries the spread of its own reps is inconclusive
// when that spread exceeds the budget: printed as such, never a failure.
func hotpathCheck(cur hotpathReport, checkPath string) bool {
	data, err := os.ReadFile(checkPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abpbench: read baseline %s: %v\n", checkPath, err)
		os.Exit(2)
	}
	var base hotpathReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "abpbench: parse baseline %s: %v\n", checkPath, err)
		os.Exit(2)
	}
	curCal, baseCal := cur.CalibrationNs, base.CalibrationNs
	if curCal <= 0 || baseCal <= 0 {
		curCal, baseCal = 1, 1
	}
	const budget = 1.10
	ok := true
	gate := func(name string, curNs, baseNs, repSpread float64) {
		if baseNs <= 0 || curNs <= 0 {
			return // column absent on one side: not a comparison
		}
		want := baseNs / baseCal
		ratio := (curNs / curCal) / want
		verdict := "ok"
		switch {
		case repSpread > budget-1:
			verdict = fmt.Sprintf("inconclusive (this run's reps spread %.0f%%)", 100*repSpread)
		case ratio > budget:
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Printf("check %s: %.2f/spin vs baseline %.2f (%.2fx, budget %.2fx): %s\n",
			name, curNs/curCal, want, ratio, budget, verdict)
	}
	baseline := map[string]hotpathOpRow{}
	for _, row := range base.Ops {
		baseline[row.Deque] = row
	}
	for _, row := range cur.Ops {
		b, found := baseline[row.Deque]
		if !found {
			continue
		}
		gate(row.Deque+" push+pop", row.PushPopNs, b.PushPopNs, 0)
		gate(row.Deque+" contended steal", row.MultiStealNs, b.MultiStealNs, 0)
	}
	if cur.Contended != nil && base.Contended != nil {
		gate("contended submit", cur.Contended.SubmitNs, base.Contended.SubmitNs, cur.Contended.SubmitRepSpread)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "abpbench: hot-path columns regressed beyond 10%% of %s\n", checkPath)
	}
	return ok
}
