package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"worksteal/internal/deque"
	"worksteal/internal/fault"
	"worksteal/internal/sched"
	"worksteal/internal/sim"
	dags "worksteal/internal/workload"
)

// The micro-phases of the traced run. Each drives one layer through its
// public functions for a share of -seconds, checks its own results, and
// reports the same experiment whatever the workload.

// microWarmOps warms a micro-phase's serve harness; its set-up is not
// reported, so it need not be long.
const microWarmOps = 2000

// timeOps calls op until budget has passed, and at least minOps times,
// and returns the median time of a call in ns.
func timeOps(budget time.Duration, minOps int, op func()) float64 {
	var times []float64
	for start := now(); now()-start < int64(budget) || len(times) < minOps; {
		t0 := now()
		op()
		times = append(times, float64(now()-t0))
	}
	return median(times)
}

// ownedDeque is the owner's side of either deque.
type ownedDeque interface {
	PushBottom(*int) bool
	PopBottom() *int
}

// dequePhases times the deque's three operations on deques of its own.
func (r *layerRun) dequePhases(dur time.Duration) {
	budget := share(dur, 0.01)
	items := make([]int, 1024)
	r.set("deque.pushpop_ns", r.pushPopNs(budget, deque.New[int](), items))
	r.set("deque.chaselev_pushpop_ns", r.pushPopNs(budget, deque.NewChaseLev[int](), items))
	r.set("deque.poptop_ns", r.popTopNs(budget, items))
	r.contendedPopTop(budget)
}

// pushPopNs is the time of one PushBottom and the PopBottom that takes
// the item back, the pair every un-stolen task costs.
//
//abp:owner the phase made d and no other goroutine holds it
func (r *layerRun) pushPopNs(budget time.Duration, d ownedDeque, items []int) float64 {
	var rounds []float64
	for start := now(); now()-start < int64(budget) || len(rounds) < 3; {
		t0 := now()
		for i := range items {
			if !d.PushBottom(&items[i]) || d.PopBottom() != &items[i] {
				r.win.fail(1, "deque: PopBottom did not return the item just pushed")
			}
		}
		rounds = append(rounds, float64(now()-t0))
	}
	return median(rounds) / float64(len(items))
}

// popTopNs is the time of one uncontended PopTop; the pushes that refill
// the deque are outside the clock.
//
//abp:owner the phase made the deque and no other goroutine holds it
func (r *layerRun) popTopNs(budget time.Duration, items []int) float64 {
	d := deque.New[int]()
	var ns, pops float64
	for start := now(); now()-start < int64(budget); {
		for i := range items {
			if !d.PushBottom(&items[i]) {
				r.win.fail(1, "deque: push refused below capacity")
			}
		}
		t0 := now()
		for i := range items {
			if d.PopTop() != &items[i] {
				r.win.fail(1, "deque: PopTop out of order")
			}
		}
		ns += float64(now() - t0)
		pops += float64(len(items))
		d.PopBottom() // on an empty deque this resets its indices, which PopTop only advances
	}
	return ns / pops
}

// thiefCount is what one thief of contendedPopTop reports when it stops.
type thiefCount struct{ calls, got, ns int64 }

// steal calls popTop until stop is set. A thief that finds nothing yields,
// as the pool's do, so the failures counted are lost races and drained
// deques, not a spin on an empty one.
func steal(popTop func() *int, stop *atomic.Bool, done chan<- thiefCount) {
	var calls, got, ns int64
	for !stop.Load() {
		t0 := now()
		n := int64(0)
		for n < 256 {
			n++
			if popTop() == nil {
				break
			}
			got++
		}
		ns += now() - t0
		calls += n
		runtime.Gosched()
	}
	done <- thiefCount{calls, got, ns}
}

// contendedPopTop runs GOMAXPROCS thieves against one owner that pushes
// and pops, and checks that every item pushed left the deque exactly once.
//
//abp:owner this goroutine alone pushes to and pops from the bottom of d; the thieves only PopTop
func (r *layerRun) contendedPopTop(budget time.Duration) {
	d := deque.New[int]()
	item := new(int)
	var stop atomic.Bool
	done := make(chan thiefCount, r.procs) // one send per thief
	for i := 0; i < r.procs; i++ {
		go steal(d.PopTop, &stop, done)
	}
	var pushed, popped int64
	for start := now(); now()-start < int64(budget); {
		for d.PushBottom(item) { // fill it, so the thieves seldom find it empty
			pushed++
		}
		for j := 0; j < 32; j++ {
			if d.PopBottom() != nil {
				popped++
			}
		}
		runtime.Gosched()
	}
	stop.Store(true)
	var all thiefCount
	for i := 0; i < r.procs; i++ {
		t := <-done
		all.calls += t.calls
		all.got += t.got
		all.ns += t.ns
	}
	for d.PopBottom() != nil {
		popped++
	}
	if pushed != popped+all.got {
		r.win.fail(1, fmt.Sprintf("deque: %d items pushed, %d popped and %d stolen", pushed, popped, all.got))
	}
	r.set("deque.poptop_contended_ns", float64(all.ns)/float64(max(all.calls, 1)))
	r.set("deque.poptop_fail_ratio", ratio(all.calls-all.got, all.calls))
}

func serialFib(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return serialFib(n-1) + serialFib(n-2)
}

// goFib is fib with a goroutine and a channel per fork: what the standard
// library offers in place of the pool.
func goFib(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	ch := make(chan uint64, 1) // one send, so the child never blocks
	go goFibInto(ch, n-1)
	b := goFib(n - 2)
	//abp:wait-ignore the goFibInto started two lines up sends on ch exactly once; the analyzer does not count a second instance of the waiter's own goroutine root as concurrent
	return <-ch + b
}

func goFibInto(ch chan<- uint64, n int) { ch <- goFib(n) }

// fjOpNs is the median op time of prob on a fresh pool of the given size.
func (r *layerRun) fjOpNs(budget time.Duration, workers int, prob fjProblem) (float64, *sched.Pool) {
	pool := sched.New(sched.Config{Workers: workers, Seed: int64(r.seed)})
	in := &fjInstance{pool: pool, prob: prob}
	return timeOps(budget, 3, func() {
		if got := in.runOp(nil); got != prob.want {
			r.win.fail(1, fmt.Sprintf("micro-phase op returned %d, want %d", got, prob.want))
		}
	}), pool
}

// spawnPhases measures the spawn path at Workers=1, where nothing is
// stolen and nobody parks, and returns the cost of one fork-join in ns.
func (r *layerRun) spawnPhases(dur time.Duration) float64 {
	fine := findWorkload("fj_fine").fj(r.seed)
	budget := share(dur, 0.03)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	oneNs, pool := r.fjOpNs(budget, 1, fine)
	runtime.ReadMemStats(&m1)
	st := pool.Stats()
	forkJoinNs := oneNs / float64(fine.tasks)
	r.set("spawn.fork_join_ns", forkJoinNs)
	r.set("spawn.allocs_per_fork", ratio(int64(m1.Mallocs-m0.Mallocs), st.TasksRun))
	r.set("spawn.bytes_per_fork", ratio(int64(m1.TotalAlloc-m0.TotalAlloc), st.TasksRun))
	r.set("spawn.inline_ratio", ratio(st.InlineRuns, st.Spawns))

	serialNs := timeOps(share(dur, 0.01), 3, func() {
		if serialFib(22) != fine.want {
			r.win.fail(1, "serial fib(22) is wrong")
		}
	})
	r.set("spawn.overhead_x", oneNs/serialNs)
	allNs, _ := r.fjOpNs(budget, r.procs, fine)
	r.set("spawn.scaling_x", allNs/oneNs)

	goNs := timeOps(budget, 3, func() {
		if goFib(22) != fine.want {
			r.win.fail(1, "goroutine fib(22) is wrong")
		}
	})
	r.set("baseline.goroutine_tasks_per_s", float64(fine.tasks)/(goNs/1e9))

	const fan = 1024
	one := sched.New(sched.Config{Workers: 1, Seed: int64(r.seed)})
	var ran int
	r.set("spawn.group_ns", timeOps(share(dur, 0.02), 3, func() {
		ran = 0
		one.Run(func(w *sched.Worker) {
			g := sched.NewGroup()
			for i := 0; i < fan; i++ {
				g.Spawn(w, func(*sched.Worker) { ran++ }) // one worker: no sharing
			}
			g.Wait(w)
		})
		if ran != fan {
			r.win.fail(1, fmt.Sprintf("group ran %d of %d children", ran, fan))
		}
	})/fan)
	r.set("spawn.run_call_us", timeOps(share(dur, 0.02), 3, func() {
		one.Run(func(*sched.Worker) {})
	})/1e3)
	return forkJoinNs
}

// multiprogPhases runs multiprog's problem at 1, P and 4P workers and
// compares the last with the paper's bound T1/P_A + Tinf*P/P_A, where
// P_A is GOMAXPROCS, T1 the one-worker time, and Tinf the longest path:
// depth fork-joins and one leaf.
func (r *layerRun) multiprogPhases(dur time.Duration, forkJoinNs float64) {
	wl := findWorkload("multiprog")
	prob := wl.fj(r.seed)
	budget := share(dur, 0.03)
	t1, _ := r.fjOpNs(budget, 1, prob)
	tp, _ := r.fjOpNs(budget, r.procs, prob)
	p := wl.workers()
	tmp, _ := r.fjOpNs(budget, p, prob)
	state := leafSeed(r.seed, 0)
	leafNs := timeOps(share(dur, 0.002), 100, func() {
		if spin(state, childSpins) == 0 {
			r.win.fail(1, "xorshift state reached zero")
		}
	})
	tinf := float64(prob.depth)*forkJoinNs + leafNs
	pa := float64(r.procs)
	r.set("multiprog.slowdown_x", tmp/tp)
	r.set("multiprog.bound_x", tmp/(t1/pa+tinf*float64(p)/pa))
}

// idleBeforePing is how long the fleet is left alone before each wake-up
// probe: long enough for every worker to leave its back-off naps and park.
const idleBeforePing = 5 * time.Millisecond

// parkPhases measures the way out of park and what an idle fleet costs.
func (r *layerRun) parkPhases(dur time.Duration) {
	spec := *findWorkload("serve_closed").serve
	h, err := setupServe(spec, r.procs, r.seed, time.Second, 1, nil, microWarmOps)
	if err != nil {
		r.win.fail(1, "park phase: "+err.Error())
		return
	}
	var wakes []float64
	for start := now(); now()-start < int64(share(dur, 0.06)) || len(wakes) < 20; {
		time.Sleep(idleBeforePing)
		var started int64
		t0 := now()
		hd, err := h.pool.Submit(func(*sched.Worker) { started = now() })
		if err == nil {
			err = hd.Wait()
		}
		if err != nil {
			r.win.fail(1, "park phase: "+err.Error())
			break
		}
		wakes = append(wakes, float64(started-t0)/1e3)
	}
	sort.Float64s(wakes)
	r.set("park.wake_us_p50", percentile(wakes, 0.50))
	r.set("park.wake_us_p99", percentile(wakes, 0.99))

	idle := share(dur, 0.03)
	c0, t0 := cpuTime(syscall.RUSAGE_SELF), now()
	time.Sleep(idle)
	c1, t1 := cpuTime(syscall.RUSAGE_SELF), now()
	r.set("park.idle_cpu_ms_per_s", float64(c1-c0)/1e6/(float64(t1-t0)/1e9))
	if err := h.close(); err != nil {
		r.win.fail(1, err.Error())
	}
}

// ladderRates are the fixed rates of the open-loop ladder, sloMs the limit
// on the p99 sojourn that a rate must meet, and sloRate the rung whose
// misses serve.slo_miss_ratio reports.
var ladderRates = []float64{10000, 20000, 30000, 45000, 60000, 80000}

const (
	sloMs   = 5.0
	sloRate = 30000
)

// ladderPhase offers the serve_open stream at each fixed rate. A rate
// holds when nothing is refused and the p99 sojourn is within the limit;
// a backlog that grows puts the p99 past any limit within the window. It
// returns the highest completion rate seen, the pool's capacity for the
// overload phase.
func (r *layerRun) ladderPhase(dur time.Duration) float64 {
	d := share(dur, 0.05)
	spec := *findWorkload("serve_open").serve
	spec.lossy = true
	var maxRate, capacity float64
	for _, rate := range ladderRates {
		spec.rate = rate
		h, err := setupServe(spec, r.procs, r.seed, d, 1, nil, microWarmOps)
		if err != nil {
			r.win.fail(1, "ladder: "+err.Error())
			return 0
		}
		win := h.openLoop(d, 1)
		r.absorb("ladder", win)
		if err := h.close(); err != nil {
			r.win.fail(1, err.Error())
		}
		ops := win.ops[0]
		sort.Float64s(ops)
		capacity = max(capacity, float64(len(ops))/(float64(win.snaps[1].wall-win.snaps[0].wall)/1e9))
		p99 := percentile(ops, 0.99)
		holds := len(ops) == win.attempted && p99 <= sloMs
		if holds {
			maxRate = rate
		}
		if rate == sloRate {
			late := len(ops) - sort.SearchFloat64s(ops, sloMs)
			r.set("serve.slo_miss_ratio", ratio(int64(win.attempted-len(ops)+late), int64(win.attempted)))
		}
		fmt.Fprintf(r.out, "  ladder %6.0f/s: %d of %d done, p99 %.3f ms, holds=%v\n", rate, len(ops), win.attempted, p99, holds)
	}
	r.set("serve.max_rate_per_s", maxRate)
	return capacity
}

// overloadPhase offers twice the pool's capacity to a small injector that
// sheds by refusing: what share gets in, and how long those wait.
func (r *layerRun) overloadPhase(dur time.Duration, capacity float64) {
	d := share(dur, 0.06)
	spec := *findWorkload("serve_open").serve
	spec.lossy = true
	spec.rate = 2 * capacity
	spec.capacity = 256
	h, err := setupServe(spec, r.procs, r.seed, d, 1, nil, microWarmOps)
	if err != nil {
		r.win.fail(1, "overload: "+err.Error())
		return
	}
	win := h.openLoop(d, 1)
	r.absorb("overload", win)
	if err := h.close(); err != nil {
		r.win.fail(1, err.Error())
	}
	sort.Float64s(win.ops[0])
	r.set("submit.overload_accept_ratio", ratio(int64(len(win.ops[0])), int64(win.attempted)))
	r.set("submit.overload_op_ms_p99", percentile(win.ops[0], 0.99))
}

// enginePhases times the three engines beside the pool: RunGraph, the
// instruction-level simulator and a disabled failpoint.
func (r *layerRun) enginePhases(dur time.Duration) {
	g := dags.FibDag(18)
	r.set("graphrun.ns_per_node", timeOps(share(dur, 0.01), 3, func() {
		res := sched.RunGraph(sched.GraphConfig{Graph: g, Seed: int64(r.seed)})
		if int(res.NodesExecuted) != g.NumNodes() {
			r.win.fail(1, fmt.Sprintf("RunGraph executed %d of %d nodes", res.NodesExecuted, g.NumNodes()))
		}
	})/float64(g.NumNodes()))

	// One simulation is exact for its seed: steps and bound repeat.
	const simP = 8
	sg := dags.FibDag(14)
	var res sim.Result
	ns := timeOps(share(dur, 0.01), 1, func() {
		res = sim.NewEngine(sim.Config{Graph: sg, P: simP, Kernel: sim.BenignKernel{NumProcs: simP}, Seed: int64(r.seed)}).Run()
	})
	if !res.Completed || res.NodesExecuted != sg.Work() {
		r.win.fail(1, fmt.Sprintf("simulation executed %d of %d nodes", res.NodesExecuted, sg.Work()))
	}
	r.set("sim.steps_per_s", float64(res.Steps)/(ns/1e9))
	r.set("sim.bound_x", float64(res.Steps)*res.PA/float64(sg.Work()+sg.CriticalPath()*simP))

	const points = 1 << 16
	r.set("fault.point_disabled_ns", timeOps(share(dur, 0.005), 3, func() {
		for i := 0; i < points; i++ {
			fault.Point("benchmark.disabled")
		}
	})/points)
}
