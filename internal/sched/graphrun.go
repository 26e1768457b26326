package sched

import (
	"fmt"
	"time"

	"worksteal/internal/atomicx"
	"worksteal/internal/dag"
	"worksteal/internal/deque"
)

// GraphConfig configures a native execution of an explicit computation dag.
// Because the dag's work T1 and critical-path length Tinf are known exactly,
// these runs are what the hardware experiments use to check the paper's
// bound on real processors.
type GraphConfig struct {
	Graph *dag.Graph
	// Workers is the number of worker goroutines (default GOMAXPROCS).
	Workers int
	// Deque selects the deque implementation (default DequeABP).
	Deque DequeKind
	// NodeWork is the synthetic cost of executing one node, in iterations
	// of a small arithmetic loop; 0 means nodes are nearly free and
	// scheduling overhead dominates.
	NodeWork int
	// NodeFunc, if non-nil, is invoked when a node executes (after the
	// NodeWork spin). It runs exactly once per node, and all of the node's
	// dag predecessors have completed before it runs, so it can implement
	// real computations structured as dags (see examples/wavefront).
	// NodeFunc must be safe for concurrent invocation on different nodes.
	// A panic in NodeFunc aborts the run and resurfaces from RunGraph.
	NodeFunc func(u dag.NodeID)
	// Seed seeds victim selection.
	Seed int64
}

// GraphResult reports a native dag execution.
type GraphResult struct {
	Elapsed       time.Duration
	NodesExecuted int64
	Steals        int64
	StealAttempts int64
	Yields        int64
	// NodesPerWorker shows the work distribution.
	NodesPerWorker []int64
}

// graphRun holds the shared state of one native dag execution. The join
// counters (remaining) are sc — the decrement result is consumed, and
// exactly one decrementer enables each node. Each worker counts the nodes
// it executes in its own line-sized slot, read after the run has joined.
type graphRun struct {
	cfg       GraphConfig
	g         *dag.Graph
	remaining []atomicx.SCInt32
	perWorker []nodeCount
}

// nodeCount is one worker's executed-node count, alone on its cache line:
// every node execution increments one, so packed counters would bounce a
// line between workers.
type nodeCount struct {
	n atomicx.Publish64
	_ [atomicx.CacheLineSize - 8]byte
}

// RunGraph executes the dag as ordinary tasks on a fresh Pool and returns
// timing and distribution statistics: the root node is the run's root task,
// and a node that enables two children spawns one and continues into the
// other — Figure 3's "push one, run the other" — so the Pool's worker loop
// is the scheduling loop, and the run ends when the Pool's termination
// accounting does. A NodeFunc panic resurfaces here, on the caller's
// goroutine. RunGraph panics if the run ends without every node executed
// (which would indicate a scheduler bug; this cannot happen).
func RunGraph(cfg GraphConfig) GraphResult {
	if cfg.Graph == nil {
		panic("sched: GraphConfig.Graph is nil")
	}
	n := cfg.Graph.NumNodes()
	p := New(Config{
		Workers: cfg.Workers,
		Deque:   cfg.Deque,
		// A deque never holds more than the dag's nodes, so small dags get
		// small deques: setup stays proportional to the run.
		DequeCapacity: min(n+1, deque.DefaultCapacity),
		Seed:          cfg.Seed,
	})
	r := &graphRun{
		cfg:       cfg,
		g:         cfg.Graph,
		remaining: make([]atomicx.SCInt32, n),
		perWorker: make([]nodeCount, p.Workers()),
	}
	for i := range r.remaining {
		r.remaining[i].Store(int32(cfg.Graph.InDegree(dag.NodeID(i))))
	}

	start := time.Now()
	p.Run(func(w *Worker) { r.runFrom(w, r.g.Root()) })
	elapsed := time.Since(start)

	st := p.Stats()
	res := GraphResult{
		Elapsed:        elapsed,
		Steals:         st.Steals,
		StealAttempts:  st.StealAttempts,
		Yields:         st.Yields,
		NodesPerWorker: make([]int64, len(r.perWorker)),
	}
	for i := range r.perWorker {
		res.NodesPerWorker[i] = r.perWorker[i].n.Load()
		res.NodesExecuted += res.NodesPerWorker[i]
	}
	if res.NodesExecuted != int64(n) {
		panic(fmt.Sprintf("sched: graph run executed %d of %d nodes", res.NodesExecuted, n))
	}
	return res
}

// runFrom is the body of one task: execute u, then follow the chain of
// enabled children — continuing into the first and spawning the second —
// until a node enables none (it died or blocked), at which point the task
// ends and the worker loop pops or steals the next one.
func (r *graphRun) runFrom(w *Worker, u dag.NodeID) {
	for u != dag.None {
		c0, c1 := r.execute(w, u)
		if c1 != dag.None {
			w.Spawn(func(w *Worker) { r.runFrom(w, c1) })
		}
		u = c0
	}
}

// execute performs node u's synthetic work, then enables children by
// decrementing successor join counters; the last decrementer of a node
// enables it (exactly-once, via atomics). Returns up to two enabled
// children (c0 filled first).
func (r *graphRun) execute(w *Worker, u dag.NodeID) (c0, c1 dag.NodeID) {
	c0, c1 = dag.None, dag.None
	spin(r.cfg.NodeWork)
	if r.cfg.NodeFunc != nil {
		r.cfg.NodeFunc(u)
	}
	r.perWorker[w.ID()].n.Add(1)
	for _, e := range r.g.Succs(u) {
		if r.remaining[e.To].Add(-1) == 0 {
			if c0 == dag.None {
				c0 = e.To
			} else {
				c1 = e.To
			}
		}
	}
	return c0, c1
}

// spinSink defeats dead-code elimination of the spin loop. Publication
// ordering suffices: nothing ever reads it back.
var spinSink atomicx.PublishUint64

// spin burns roughly n iterations of integer work.
func spin(n int) {
	if n <= 0 {
		return
	}
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}
