package main

import (
	"bufio"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"worksteal/internal/sched"
)

// perLayerMetrics is the ledger of the traced run, grouped by the module
// each metric measures. README.md says which end-to-end metric each should
// move, on which workload.
var perLayerMetrics = []metricDecl{
	// internal/deque
	{"deque.pushpop_ns", "ns"},
	{"deque.poptop_ns", "ns"},
	{"deque.poptop_contended_ns", "ns"},
	{"deque.poptop_fail_ratio", "1"},
	{"deque.chaselev_pushpop_ns", "ns"},
	// sched: Spawn, exec, Future, Group, at Workers=1
	{"spawn.fork_join_ns", "ns"},
	{"spawn.group_ns", "ns"},
	{"spawn.run_call_us", "us"},
	{"spawn.allocs_per_fork", "1"},
	{"spawn.bytes_per_fork", "B"},
	{"spawn.inline_ratio", "1"},
	{"spawn.overhead_x", "x"},
	{"spawn.scaling_x", "x"},
	{"baseline.goroutine_tasks_per_s", "1/s"},
	// sched: stealOnce and the worker loop, over the workload's window
	{"steal.per_task", "1"},
	{"steal.attempts_per_task", "1"},
	{"steal.success_ratio", "1"},
	{"steal.yields_per_task", "1"},
	{"steal.bound_x", "x"},
	{"steal.handoff_us_p50", "us"},
	{"exec.busy_share", "1"},
	{"multiprog.slowdown_x", "x"},
	{"multiprog.bound_x", "x"},
	// sched: idleWait, park, signalWork
	{"park.parks_per_s", "1/s"},
	{"park.wakes_per_s", "1/s"},
	{"park.backoff_share", "1"},
	{"park.wake_us_p50", "us"},
	{"park.wake_us_p99", "us"},
	{"park.idle_cpu_ms_per_s", "ms/s"},
	// sched: the injector, through Submit
	{"submit.call_ns_p50", "ns"},
	{"submit.call_ns_p99", "ns"},
	{"submit.reject_ratio", "1"},
	{"injector.backlog_p99", "count"},
	{"submit.overload_accept_ratio", "1"},
	{"submit.overload_op_ms_p99", "ms"},
	// sched: run records and Handle
	{"serve.submit_us_p50", "us"},
	{"serve.submit_us_p99", "us"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.exec_us_p50", "us"},
	{"serve.exec_us_p99", "us"},
	{"serve.resolve_us_p50", "us"},
	{"serve.resolve_us_p99", "us"},
	{"serve.max_rate_per_s", "1/s"},
	{"serve.slo_miss_ratio", "1"},
	// sched.RunGraph, internal/sim, internal/fault
	{"graphrun.ns_per_node", "ns"},
	{"sim.steps_per_s", "1/s"},
	{"sim.bound_x", "x"},
	{"fault.point_disabled_ns", "ns"},
	// the tracer itself
	{"trace.overhead_x", "x"},
	// the workload's op times, untraced; see opTimeMetrics
	opTimeMetrics[0],
	opTimeMetrics[1],
}

// layerRun collects the traced run's numbers and the failures of its
// phases, each of which checks its own results.
type layerRun struct {
	vals  map[string]float64
	win   *window // the workload's traced window; phase failures are added to it
	seed  uint64
	procs int
	out   *bufio.Writer
}

func (r *layerRun) set(name string, v float64) { r.vals[name] = v }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// The traced run divides -seconds between the workload's traced window,
// an untraced reference window for trace.overhead_x, and the micro-phases,
// whose shares add up to about 0.6.
const (
	tracedShare    = 0.25
	referenceShare = 0.15
)

func share(dur time.Duration, s float64) time.Duration { return time.Duration(float64(dur) * s) }

func runTraced(wl *workload, seed uint64, dur time.Duration, outDir string, out *bufio.Writer) (*report, error) {
	procs := runtime.GOMAXPROCS(0)
	workers := wl.workers()
	r := &layerRun{vals: map[string]float64{}, seed: seed, procs: procs, out: out}

	tdur := share(dur, tracedShare)
	tr := newTracer(workers)
	in, _, err := wl.timedSetup(seed, tdur, tr, 1)
	if err != nil {
		return nil, err
	}
	tr.reset()
	r.win = in.measure(tdur, tr)
	first, last := r.win.snaps[0], r.win.snaps[len(r.win.snaps)-1]
	wall := last.wall - first.wall
	depth := 2 // a root and its children
	if in.fj != nil {
		depth = in.fj.prob.depth
	}
	r.windowMetrics(first.stats, last.stats, wall, workers, depth, tr)
	var stages []span
	if in.serve != nil {
		stages = r.stageMetrics(in.serve, first.stats, last.stats)
	}
	if err := in.close(); err != nil {
		r.win.fail(1, err.Error())
	}
	fmt.Fprintf(out, "%s traced window: %.2f s, %d ops\n", wl.name, float64(wall)/1e9, r.win.attempted)
	tr.printLedger(out, wall*int64(workers))
	if err := tr.writeChrome(filepath.Join(outDir, "trace-"+wl.name+".json"), stages); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}

	// The same workload untraced, for what tracing costs.
	rdur := share(dur, referenceShare)
	ref, _, err := wl.timedSetup(seed, rdur, nil, 1)
	if err != nil {
		return nil, err
	}
	rwin := ref.measure(rdur, nil)
	if err := ref.close(); err != nil {
		rwin.fail(1, err.Error())
	}
	r.absorb("untraced window", rwin)
	r.set("trace.overhead_x", windowRate(r.win)/windowRate(rwin))
	untraced := endToEnd(rwin, metric{})
	for _, d := range opTimeMetrics {
		r.set(d.Name, untraced[d.Name].Value)
	}

	r.dequePhases(dur)
	forkJoinNs := r.spawnPhases(dur)
	r.multiprogPhases(dur, forkJoinNs)
	r.parkPhases(dur)
	capacity := r.ladderPhase(dur)
	r.overloadPhase(dur, capacity)
	if in.serve == nil {
		// A fork-join workload makes no submissions; a traced probe of
		// the serve_open stream stands in for its window.
		if err := r.probePhase(dur); err != nil {
			return nil, err
		}
	}
	r.enginePhases(dur)

	rep := newReport(wl, seed, dur, r.win)
	rep.Traced = true
	rep.Metrics = map[string]metric{}
	for _, d := range perLayerMetrics {
		rep.Metrics[d.Name] = metric{Value: r.vals[d.Name], Unit: d.Unit}
	}
	return rep, nil
}

// windowRate is tasks per second over a whole window.
func windowRate(w *window) float64 {
	a, b := w.snaps[0], w.snaps[len(w.snaps)-1]
	return float64(b.stats.TasksRun-a.stats.TasksRun) / (float64(b.wall-a.wall) / 1e9)
}

// windowMetrics reports the steal and park layers over the workload's
// traced window: Stats deltas, and the stamps its closures took.
func (r *layerRun) windowMetrics(a, b sched.Stats, wall int64, workers, depth int, tr *tracer) {
	tasks := b.TasksRun - a.TasksRun
	steals := b.Steals - a.Steals
	attempts := b.StealAttempts - a.StealAttempts
	r.set("steal.per_task", ratio(steals, tasks))
	r.set("steal.attempts_per_task", ratio(attempts, tasks))
	r.set("steal.success_ratio", ratio(steals, attempts))
	r.set("steal.yields_per_task", ratio(b.Yields-a.Yields, tasks))
	// The paper's expected steal count is O(P * Tinf); depth is Tinf in
	// task levels.
	r.set("steal.bound_x", ratio(steals, int64(r.win.attempted))/float64(workers*depth))
	r.set("steal.handoff_us_p50", percentile(tr.handoffs(), 0.50))
	leaf, _ := tr.selfNs(spanLeaf)
	child, _ := tr.selfNs(spanChild)
	r.set("exec.busy_share", float64(leaf+child)/float64(wall*int64(workers)))
	sec := float64(wall) / 1e9
	r.set("park.parks_per_s", float64(b.Parks-a.Parks)/sec)
	r.set("park.wakes_per_s", float64(b.Wakes-a.Wakes)/sec)
	r.set("park.backoff_share", float64(b.BackoffNanos-a.BackoffNanos)/float64(wall*int64(workers)))
}

// stageSpans is how many submissions' stage spans go to the trace file.
const stageSpans = 4096

// stageMetrics reports the serve and injector layers from the stage
// stamps of a traced harness and returns the stage spans for its trace
// file: sojourn (due to root end) with children queue_wait and resolve.
func (r *layerRun) stageMetrics(h *serveHarness, a, b sched.Stats) []span {
	var submit, queue, exec, resolve []float64
	var spans []span
	for i := range h.rec {
		rec := &h.rec[i]
		if rec.end == 0 {
			continue // refused, or beyond the window's last op
		}
		submit = append(submit, float64(rec.ret-rec.call)/1e3)
		queue = append(queue, float64(max(rec.start-rec.ret, 0))/1e3)
		exec = append(exec, float64(rec.end-rec.start)/1e3)
		resolved := rec.resolved.Load()
		if resolved != 0 {
			resolve = append(resolve, float64(resolved-rec.end)/1e3)
		}
		if i < stageSpans {
			op := int32(i)
			spans = append(spans,
				span{kind: spanSojourn, lane: 0, op: op, start: rec.due, end: rec.end},
				span{kind: spanQueue, parent: spanSojourn, lane: 1, op: op, start: rec.ret, end: max(rec.start, rec.ret)},
				span{kind: spanResolve, parent: spanSojourn, lane: 2, op: op, start: rec.end, end: max(resolved, rec.end)})
		}
	}
	fmt.Fprintf(r.out, "  stages of %d traced submissions (us)\n", len(exec))
	for _, st := range []struct {
		name string
		xs   []float64
	}{{"submit", submit}, {"queue_wait", queue}, {"exec", exec}, {"resolve", resolve}} {
		sort.Float64s(st.xs)
		p50, p99 := percentile(st.xs, 0.50), percentile(st.xs, 0.99)
		fmt.Fprintf(r.out, "  %-12s p50 %10.3f  p99 %10.3f\n", st.name, p50, p99)
		r.set("serve."+st.name+"_us_p50", p50)
		r.set("serve."+st.name+"_us_p99", p99)
	}
	// The time inside Submit is the injector layer's too, in its own unit.
	r.set("submit.call_ns_p50", r.vals["serve.submit_us_p50"]*1e3)
	r.set("submit.call_ns_p99", r.vals["serve.submit_us_p99"]*1e3)
	r.set("submit.reject_ratio", ratio(b.SubmitsRejected-a.SubmitsRejected, h.calls))
	sort.Float64s(h.backlog)
	r.set("injector.backlog_p99", percentile(h.backlog, 0.99))
	return spans
}

// probePhase runs the serve_open stream traced for a short window, so a
// fork-join workload's ledger still has the serve and injector layers.
func (r *layerRun) probePhase(dur time.Duration) error {
	d := share(dur, 0.06)
	spec := *findWorkload("serve_open").serve
	tr := newTracer(r.procs)
	h, err := setupServe(spec, r.procs, r.seed, d, 1, tr, microWarmOps)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	win := h.openLoop(d, 1)
	r.absorb("probe", win)
	r.stageMetrics(h, win.snaps[0].stats, win.snaps[1].stats)
	if err := h.close(); err != nil {
		r.win.fail(1, err.Error())
	}
	return nil
}

// absorb adds a phase's own check failures to the run's.
func (r *layerRun) absorb(phase string, w *window) {
	for _, n := range w.notes {
		r.win.fail(0, phase+": "+n)
	}
	r.win.failed += w.failed
}
