package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// The fork cost of the library's own splits: a grain-1 Reduce and
// ParallelFor on one worker, so every split is a fork its joiner pops back
// and calls, and the leaves do nothing. ns/leaf is the scheduler's cost of
// a leaf and its share of the splits above it; allocs/op counts a whole Run,
// which must not grow with the leaves. Run with
//
//	go test -run '^$' -bench 'Fine' -benchtime 200x ./internal/sched/
func BenchmarkReduceFine(b *testing.B) {
	ident := func(i int) int { return i }
	add := func(a, b int) int { return a + b }
	benchLeaves(b, func(w *Worker, leaves int) bool {
		return Reduce(w, 0, leaves, 1, ident, add) == leaves*(leaves-1)/2
	})
}

func BenchmarkParallelForFine(b *testing.B) {
	benchLeaves(b, func(w *Worker, leaves int) bool {
		ParallelFor(w, 0, leaves, 1, func(int) {})
		return true
	})
}

// BenchmarkJoin2Fine is fib(20) through Join2 on one worker with empty
// leaves: one fork per call with n >= 2, every one popped back by its
// joiner. ns/fork is the scheduler's cost of a fork, its join and its call.
func BenchmarkJoin2Fine(b *testing.B) {
	const n = 20
	var fib func(w *Worker, n int) int
	fib = func(w *Worker, n int) int {
		if n < 2 {
			return n
		}
		x, y := Join2(w, func(c *Worker) int { return fib(c, n-1) }, func(c *Worker) int { return fib(c, n-2) })
		return x + y
	}
	forks := fibSerial(n+1) - 1 // the calls with n >= 2
	p := New(Config{Workers: 1})
	got := 0
	root := func(w *Worker) { got = fib(w, n) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(root)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(forks), "ns/fork")
	if got != fibSerial(n) {
		b.Fatalf("fib(%d) = %d, want %d", n, got, fibSerial(n))
	}
}

// benchLeaves times one Run of tree per op on a one-worker pool, at 2^10
// and 2^15 leaves.
func benchLeaves(b *testing.B, tree func(w *Worker, leaves int) bool) {
	for _, leaves := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			p := New(Config{Workers: 1})
			ok := true
			root := func(w *Worker) { ok = tree(w, leaves) && ok }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(root)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(leaves), "ns/leaf")
			if !ok {
				b.Fatal("wrong result")
			}
		})
	}
}

// BenchmarkSubmitWait is a Submit to a serving one-worker pool and a Wait
// that finds its Handle ended: a submission's path as its caller sees it,
// the worker's wake included. B/op is the Handle's share of its chunk
// (nextHandle), 8 bytes, and allocs/op its 1/64 of an allocation.
func BenchmarkSubmitWait(b *testing.B) {
	p := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- p.Serve(ctx) }()
	for p.phase.Load() != phaseServing {
		runtime.Gosched()
	}
	nop := func(*Worker) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := p.Submit(nop)
		if err != nil {
			b.Fatalf("Submit: %v", err)
		}
		for !h.done.isDone() {
			runtime.Gosched()
		}
		if err := h.Wait(); err != nil {
			b.Fatalf("Wait: %v", err)
		}
	}
	b.StopTimer()
	cancel()
	<-served
}

// BenchmarkSpawnStolen is a Spawn on one of two workers that the other
// steals and runs while the spawner waits for it, so every spawn is stolen:
// the stolen spawn's path, the thief's wake included. allocs/op is the
// spawner's records: the thief lists each one it runs, so the spawner's
// list stays empty and every spawn allocates one.
func BenchmarkSpawnStolen(b *testing.B) {
	p := New(Config{Workers: 2})
	var ran atomic.Int64
	task := func(*Worker) { ran.Add(1) }
	b.ReportAllocs()
	b.ResetTimer()
	p.Run(func(w *Worker) {
		for i := int64(1); i <= int64(b.N); i++ {
			w.Spawn(task)
			for ran.Load() < i {
				runtime.Gosched()
			}
			// The ABP deque starts over from slot zero only when its owner
			// pops it empty: without this pop every spawn past its capacity
			// would run inline.
			if t := w.dq.PopBottom(); t != nil {
				b.Error("a stolen spawn was still in the deque")
				return
			}
		}
	})
	if got := p.Stats().Steals; got < int64(b.N) { // the root may be stolen too
		b.Fatalf("%d steals for %d spawns", got, b.N)
	}
}
