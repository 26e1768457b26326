package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/dag"
	"worksteal/internal/workload"
)

// runGraphOn is RunGraph with the pool's workers on deques of kind.
func runGraphOn(kind dequeKind, cfg GraphConfig) GraphResult {
	return withDeque(graphPool(cfg), kind).runGraph(cfg)
}

// Every catalog dag, on every deque, at worker counts from serial through
// multiprogrammed (4 x GOMAXPROCS): each node runs exactly once, after all
// of its predecessors, and the per-worker counts account for every node.
func TestRunGraphAllWorkloads(t *testing.T) {
	deques := []struct {
		name string
		kind dequeKind
	}{{"abp", dequeABP}, {"chaselev", dequeChaseLev}, {"mutex", dequeMutex}}
	workerCounts := []int{1, 2, 4, 8}
	if m := 4 * runtime.GOMAXPROCS(0); m > 8 {
		workerCounts = append(workerCounts, m)
	}
	for _, spec := range workload.SmallCatalog() {
		for _, dq := range deques {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/W=%d", spec.Name, dq.name, workers), func(t *testing.T) {
					g := spec.Build()
					ran := make([]atomic.Int32, g.NumNodes())
					res := runGraphOn(dq.kind, GraphConfig{Graph: g, Workers: workers, Seed: 11,
						NodeFunc: func(u dag.NodeID) {
							for _, e := range g.Preds(u) {
								if ran[e.From].Load() != 1 {
									t.Errorf("node %d ran before its predecessor %d", u, e.From)
								}
							}
							if n := ran[u].Add(1); n != 1 {
								t.Errorf("node %d ran %d times", u, n)
							}
						}})
					if res.NodesExecuted != int64(g.NumNodes()) {
						t.Fatalf("executed %d of %d", res.NodesExecuted, g.NumNodes())
					}
					if len(res.NodesPerWorker) != workers {
						t.Fatalf("NodesPerWorker has %d entries for %d workers", len(res.NodesPerWorker), workers)
					}
					total := int64(0)
					for _, n := range res.NodesPerWorker {
						total += n
					}
					if total != res.NodesExecuted {
						t.Fatalf("per-worker sum %d != total %d", total, res.NodesExecuted)
					}
					if res.Steals > res.StealAttempts {
						t.Fatalf("steals %d > attempts %d", res.Steals, res.StealAttempts)
					}
				})
			}
		}
	}
}

// A NodeFunc panic aborts the run like any task panic: it resurfaces from
// RunGraph on the caller's goroutine with the original value, and every
// worker goroutine has exited by then.
func TestRunGraphNodeFuncPanic(t *testing.T) {
	g := workload.FibDag(12)
	before := runtime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		RunGraph(GraphConfig{Graph: g, Workers: 4, Seed: 3,
			NodeFunc: func(u dag.NodeID) {
				if int(u) == g.NumNodes()/2 {
					panic("node boom")
				}
			}})
	}()
	if recovered != "node boom" {
		t.Fatalf("RunGraph recovered %v, want the NodeFunc panic value", recovered)
	}
	// The session teardown joins the workers before RunGraph re-panics;
	// allow the runtime a moment to finish retiring their goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before the panicking run, %d after: workers left behind", before, n)
	}
}

func TestRunGraphFigure1(t *testing.T) {
	g := dag.Figure1()
	res := RunGraph(GraphConfig{Graph: g, Workers: 3, Seed: 1})
	if res.NodesExecuted != 11 {
		t.Fatalf("executed %d", res.NodesExecuted)
	}
}

func TestRunGraphMutexDeque(t *testing.T) {
	g := workload.FibDag(12)
	res := runGraphOn(dequeMutex, GraphConfig{Graph: g, Workers: 4, Seed: 2})
	if res.NodesExecuted != int64(g.NumNodes()) {
		t.Fatalf("executed %d of %d", res.NodesExecuted, g.NumNodes())
	}
}

func TestRunGraphWithNodeWork(t *testing.T) {
	g := workload.SpawnSpine(8, 16)
	res := RunGraph(GraphConfig{Graph: g, Workers: 4, NodeWork: 200, Seed: 3})
	if res.NodesExecuted != int64(g.NumNodes()) {
		t.Fatal("incomplete")
	}
}

// With real node work and multiple CPUs, the parallel run distributes nodes
// across workers.
func TestRunGraphDistributesWork(t *testing.T) {
	g := workload.SpawnSpine(32, 128)
	res := RunGraph(GraphConfig{Graph: g, Workers: 4, NodeWork: 500, Seed: 5})
	active := 0
	for _, n := range res.NodesPerWorker {
		if n > 0 {
			active++
		}
	}
	if active < 2 {
		t.Logf("only %d active workers (machine may be loaded); nodes=%v", active, res.NodesPerWorker)
	}
	if res.Steals == 0 {
		t.Log("no steals observed; unusual but possible under load")
	}
}

func TestRunGraphPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]GraphConfig{
		"nil graph":        {},
		"negative workers": {Graph: workload.Chain(3), Workers: -2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			RunGraph(cfg)
		}()
	}
}

func TestSpin(t *testing.T) {
	spin(0) // no-op
	spin(-5)
	spin(100)
	if spinSink.Load() == 0 {
		t.Error("spin sink untouched")
	}
}

func TestRunGraphChaseLev(t *testing.T) {
	g := workload.FibDag(13)
	res := runGraphOn(dequeChaseLev, GraphConfig{Graph: g, Workers: 4, Seed: 4})
	if res.NodesExecuted != int64(g.NumNodes()) {
		t.Fatalf("executed %d of %d", res.NodesExecuted, g.NumNodes())
	}
}

func TestRunGraphNodeFunc(t *testing.T) {
	// Wavefront DP on a grid dag: cell (i,j) sums its north and west
	// neighbours (binomial coefficients). The dag's edges are exactly the
	// data dependencies, so the result is deterministic.
	const rows, cols = 8, 10
	g := workload.Grid(rows, cols)
	dp := make([]int64, rows*cols)
	res := RunGraph(GraphConfig{Graph: g, Workers: 4, Seed: 5,
		NodeFunc: func(u dag.NodeID) {
			i, j := int(u)/cols, int(u)%cols
			switch {
			case i == 0 || j == 0:
				dp[u] = 1
			default:
				dp[u] = dp[(i-1)*cols+j] + dp[i*cols+(j-1)]
			}
		}})
	if res.NodesExecuted != rows*cols {
		t.Fatal("incomplete")
	}
	// dp[i][j] = C(i+j, i); check a few cells.
	if dp[1*cols+1] != 2 || dp[2*cols+2] != 6 || dp[(rows-1)*cols+cols-1] == 0 {
		t.Fatalf("dp wrong: %v", dp)
	}
	var binom func(n, k int) int64
	binom = func(n, k int) int64 {
		r := int64(1)
		for i := 0; i < k; i++ {
			r = r * int64(n-i) / int64(i+1)
		}
		return r
	}
	if want := binom(rows-1+cols-1, rows-1); dp[(rows-1)*cols+cols-1] != want {
		t.Fatalf("corner = %d, want %d", dp[(rows-1)*cols+cols-1], want)
	}
}
