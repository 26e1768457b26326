package main

import (
	"fmt"
	"time"

	"worksteal/internal/sched"
)

// fjProblem is one fork-join computation: an op is one Pool.Run of run.
type fjProblem struct {
	// run computes the result on the pool; tr is nil on untraced runs.
	run   func(w *sched.Worker, tr *tracer) uint64
	want  uint64
	tasks int64 // tasks one op makes the pool run, root included
	depth int   // task levels on the longest path: Tinf counted in tasks
}

func fibNum(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// fib is fj_fine's computation: one task per call with n >= 2 and no
// body at all, so an op's time is the scheduler's own.
func fib(w *sched.Worker, n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	a, b := sched.Join2(w,
		func(c *sched.Worker) uint64 { return fib(c, n-1) },
		func(c *sched.Worker) uint64 { return fib(c, n-2) })
	return a + b
}

// tracedJoin2 is sched.Join2 written out, so that the calls into sched
// and the forked closure can be stamped: the fork and join spans on the
// caller's lane, the task span and its hand-off on the lane of whichever
// worker runs fa.
func tracedJoin2(w *sched.Worker, tr *tracer, fa, fb func(*sched.Worker) uint64) (uint64, uint64) {
	me := w.ID()
	l := &tr.lanes[me]
	ff := l.begin(spanFork)
	fut := sched.Fork(w, func(c *sched.Worker) uint64 {
		cl := &tr.lanes[c.ID()]
		tf := cl.begin(spanTask)
		if c.ID() != me {
			cl.started(ff.start, tf.start)
		}
		v := fa(c)
		cl.end(spanTask, tr.op, tf)
		return v
	})
	l.end(spanFork, tr.op, ff)
	b := fb(w)
	jf := l.begin(spanJoin)
	a := fut.Join(w)
	l.end(spanJoin, tr.op, jf)
	return a, b
}

// tracedLeaf runs a leaf body inside a leaf span on w's lane.
func tracedLeaf(w *sched.Worker, tr *tracer, body func() uint64) uint64 {
	l := &tr.lanes[w.ID()]
	f := l.begin(spanLeaf)
	v := body()
	l.end(spanLeaf, tr.op, f)
	return v
}

// fibTraced is fib through tracedJoin2. It is a separate function so that
// the untraced closures capture nothing but n.
func fibTraced(w *sched.Worker, tr *tracer, n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	a, b := tracedJoin2(w, tr,
		func(c *sched.Worker) uint64 { return fibTraced(c, tr, n-1) },
		func(c *sched.Worker) uint64 { return fibTraced(c, tr, n-2) })
	return a + b
}

func fineProblem(n int) fjProblem {
	return fjProblem{
		run: func(w *sched.Worker, tr *tracer) uint64 {
			if tr != nil {
				return fibTraced(w, tr, n)
			}
			return fib(w, n)
		},
		want:  fibNum(n),
		tasks: int64(fibNum(n + 1)), // calls with n >= 2, plus the root
		depth: n - 1,
	}
}

// leafSeed gives leaf i of a seeded problem its non-zero xorshift state.
func leafSeed(seed uint64, i int) uint64 {
	s := splitmix64(seed ^ uint64(i)<<32)
	return s.next() | 1
}

// tracedReduce mirrors the recursion of sched.Reduce through sched.Fork:
// Reduce hands its leaves no *Worker, so the traced run needs its own
// copy to know which lane a leaf runs on.
func tracedReduce(w *sched.Worker, tr *tracer, lo, hi int, leaf func(i int) uint64) uint64 {
	if hi-lo <= 1 {
		return tracedLeaf(w, tr, func() uint64 { return leaf(lo) })
	}
	mid := lo + (hi-lo)/2
	right, left := tracedJoin2(w, tr,
		func(c *sched.Worker) uint64 { return tracedReduce(c, tr, mid, hi, leaf) },
		func(c *sched.Worker) uint64 { return tracedReduce(c, tr, lo, mid, leaf) })
	return left + right
}

// coarseProblem is fj_coarse: sched.Reduce over leaves of spins rounds
// each, summed.
func coarseProblem(seed uint64, leaves, spins int) fjProblem {
	leaf := func(i int) uint64 { return spin(leafSeed(seed, i), spins) }
	var want uint64
	for i := 0; i < leaves; i++ {
		want += leaf(i)
	}
	depth := 0
	for n := leaves; n > 1; n = (n + 1) / 2 {
		depth++
	}
	return fjProblem{
		run: func(w *sched.Worker, tr *tracer) uint64 {
			if tr != nil {
				return tracedReduce(w, tr, 0, leaves, leaf)
			}
			return sched.Reduce(w, 0, leaves, 1, leaf, func(a, b uint64) uint64 { return a + b })
		},
		want:  want,
		tasks: int64(leaves), // leaves-1 forks and the root
		depth: depth,
	}
}

// cutoffFib is multiprog's computation: fib(n) forking down to cutoff,
// where a leaf spins and returns the small Fibonacci number directly.
type cutoffFib struct {
	cutoff, spins int
	state         uint64
}

func (p *cutoffFib) leaf(n int) uint64 {
	if spin(p.state, p.spins) == 0 {
		return 0 // unreachable: makes the result depend on the spin
	}
	return fibNum(n)
}

func (p *cutoffFib) run(w *sched.Worker, tr *tracer, n int) uint64 {
	if n <= p.cutoff {
		if tr == nil {
			return p.leaf(n)
		}
		return tracedLeaf(w, tr, func() uint64 { return p.leaf(n) })
	}
	fa := func(c *sched.Worker) uint64 { return p.run(c, tr, n-1) }
	fb := func(c *sched.Worker) uint64 { return p.run(c, tr, n-2) }
	var a, b uint64
	if tr == nil {
		a, b = sched.Join2(w, fa, fb)
	} else {
		a, b = tracedJoin2(w, tr, fa, fb)
	}
	return a + b
}

// forks counts the calls of fib(n) above the cutoff: one task each.
func (p *cutoffFib) forks(n int) int64 {
	if n <= p.cutoff {
		return 0
	}
	return 1 + p.forks(n-1) + p.forks(n-2)
}

func cutoffProblem(seed uint64, n, cutoff, spins int) fjProblem {
	p := &cutoffFib{cutoff: cutoff, spins: spins, state: leafSeed(seed, 0)}
	return fjProblem{
		run:   func(w *sched.Worker, tr *tracer) uint64 { return p.run(w, tr, n) },
		want:  fibNum(n),
		tasks: p.forks(n) + 1,
		depth: n - cutoff,
	}
}

// fjInstance is a fork-join workload set up and warm: its pool has run
// warmOps ops.
type fjInstance struct {
	pool *sched.Pool
	prob fjProblem
}

const warmOps = 50

func setupFJ(workers int, seed uint64, prob func(seed uint64) fjProblem) (*fjInstance, error) {
	in := &fjInstance{
		pool: sched.New(sched.Config{Workers: workers, Seed: int64(seed)}),
		prob: prob(seed),
	}
	for i := 0; i < warmOps; i++ {
		if got := in.runOp(nil); got != in.prob.want {
			return nil, fmt.Errorf("warm-up op %d returned %d, want %d", i, got, in.prob.want)
		}
	}
	return in, nil
}

func (in *fjInstance) runOp(tr *tracer) uint64 {
	var got uint64
	in.pool.Run(func(w *sched.Worker) { got = in.prob.run(w, tr) })
	return got
}

// measure runs ops back to back for dur, split into k sub-windows at op
// boundaries, and checks every result and the pool's own task count.
func (in *fjInstance) measure(dur time.Duration, k int, tr *tracer) *window {
	win := &window{ops: make([][]float64, k)}
	for i := range win.ops {
		win.ops[i] = make([]float64, 0, 1024)
	}
	win.snaps = append(win.snaps, takeSnapshot(in.pool))
	start := win.snaps[0].wall
	for sub := 0; sub < k; {
		if tr != nil {
			tr.op = int32(win.attempted)
		}
		t0 := now()
		var got uint64
		if tr != nil {
			f := tr.gen().begin(spanRun)
			got = in.runOp(tr)
			tr.gen().end(spanRun, tr.op, f)
		} else {
			got = in.runOp(nil)
		}
		t1 := now()
		win.attempted++
		if got != in.prob.want {
			win.fail(1, fmt.Sprintf("op %d returned %d, want %d", win.attempted-1, got, in.prob.want))
		}
		win.ops[sub] = append(win.ops[sub], float64(t1-t0)/1e6)
		for sub < k && t1-start >= subWindowEnd(dur, k, sub) {
			win.snaps = append(win.snaps, takeSnapshot(in.pool))
			sub++
		}
	}
	ran := win.snaps[k].stats.TasksRun - win.snaps[0].stats.TasksRun
	if want := int64(win.attempted) * in.prob.tasks; ran != want {
		win.fail(1, fmt.Sprintf("pool ran %d tasks for %d ops, want %d", ran, win.attempted, want))
	}
	return win
}
