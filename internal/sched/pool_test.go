package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolRunsRoot(t *testing.T) {
	p := New(Config{Workers: 4})
	var ran atomic.Bool
	p.Run(func(w *Worker) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("root did not run")
	}
	if s := p.Stats(); s.TasksRun != 1 {
		t.Fatalf("TasksRun = %d, want 1", s.TasksRun)
	}
}

func TestPoolSpawnAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(Config{Workers: workers})
		const n = 5000
		var count atomic.Int64
		p.Run(func(w *Worker) {
			for i := 0; i < n; i++ {
				w.Spawn(func(*Worker) { count.Add(1) })
			}
		})
		if count.Load() != n {
			t.Fatalf("workers=%d: ran %d of %d spawns", workers, count.Load(), n)
		}
	}
}

func TestPoolNestedSpawns(t *testing.T) {
	p := New(Config{Workers: 4})
	var count atomic.Int64
	var spawnTree func(w *Worker, depth int)
	spawnTree = func(w *Worker, depth int) {
		count.Add(1)
		if depth == 0 {
			return
		}
		w.Spawn(func(w2 *Worker) { spawnTree(w2, depth-1) })
		w.Spawn(func(w2 *Worker) { spawnTree(w2, depth-1) })
	}
	p.Run(func(w *Worker) { spawnTree(w, 10) })
	if want := int64(1<<11 - 1); count.Load() != want {
		t.Fatalf("count = %d, want %d", count.Load(), want)
	}
}

func TestPoolReusable(t *testing.T) {
	p := New(Config{Workers: 3})
	for round := 0; round < 5; round++ {
		var count atomic.Int64
		p.Run(func(w *Worker) {
			ParallelFor(w, 0, 100, 4, func(int) { count.Add(1) })
		})
		if count.Load() != 100 {
			t.Fatalf("round %d: count = %d", round, count.Load())
		}
	}
}

func fibSerial(n int) int {
	if n < 2 {
		return n
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

func fibPar(w *Worker, n, cutoff int) int {
	if n < cutoff {
		return fibSerial(n)
	}
	a, b := Join2(w,
		func(w2 *Worker) int { return fibPar(w2, n-1, cutoff) },
		func(w2 *Worker) int { return fibPar(w2, n-2, cutoff) })
	return a + b
}

func TestForkJoinFib(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, deq := range []DequeKind{DequeABP, dequeMutex} {
			t.Run(fmt.Sprintf("workers=%d/deque=%d", workers, deq), func(t *testing.T) {
				p := New(Config{Workers: workers, Deque: deq})
				var got int
				p.Run(func(w *Worker) { got = fibPar(w, 20, 5) })
				if want := fibSerial(20); got != want {
					t.Fatalf("fib(20) = %d, want %d", got, want)
				}
			})
		}
	}
}

func TestFutureDoneAndValue(t *testing.T) {
	p := New(Config{Workers: 2})
	p.Run(func(w *Worker) {
		f := Fork(w, func(*Worker) string { return "hello" })
		if got := f.Join(w); got != "hello" {
			t.Errorf("Join = %q", got)
		}
		if !f.Done() {
			t.Error("Done false after Join")
		}
		if got := f.Join(w); got != "hello" {
			t.Errorf("second Join = %q", got)
		}
	})
}

func TestParallelFor(t *testing.T) {
	p := New(Config{Workers: 4})
	const n = 10000
	hits := make([]atomic.Int32, n)
	p.Run(func(w *Worker) {
		ParallelFor(w, 0, n, 16, func(i int) { hits[i].Add(1) })
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
}

// With nothing stolen, ParallelFor is a left-to-right loop: it forks the
// right half, descends into the left, and only then joins — popping the
// right half back. Map is ParallelFor and visits in the same order.
func TestParallelForUnstolenVisitsLeftToRight(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind DequeKind) {
		p := New(Config{Workers: 1, Deque: kind})
		const n = 1000
		var visited, mapped []int
		out := make([]int, n)
		p.Run(func(w *Worker) {
			ParallelFor(w, 0, n, 3, func(i int) { visited = append(visited, i) })
			Map(w, out, 7, func(i int) int { mapped = append(mapped, i); return i })
		})
		for _, order := range [][]int{visited, mapped} {
			if len(order) != n {
				t.Fatalf("visited %d of %d indices", len(order), n)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("visit %d was index %d", i, v)
				}
			}
		}
	})
}

func TestParallelForEdgeCases(t *testing.T) {
	p := New(Config{Workers: 2})
	var ran atomic.Int32
	p.Run(func(w *Worker) {
		ParallelFor(w, 5, 5, 4, func(int) { ran.Add(1) }) // empty range
		if ran.Load() != 0 {
			t.Errorf("empty range ran %d times", ran.Load())
		}
		ParallelFor(w, 0, 3, 0, func(int) { ran.Add(1) }) // grain clamped to 1
		if got := ran.Load(); got != 3 {
			t.Errorf("ran = %d, want 3", got)
		}
	})
}

func TestReduce(t *testing.T) {
	p := New(Config{Workers: 4})
	var got int
	p.Run(func(w *Worker) {
		got = Reduce(w, 1, 1001, 8, func(i int) int { return i }, func(a, b int) int { return a + b })
	})
	if want := 1000 * 1001 / 2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestReduceEmptyAndSingle(t *testing.T) {
	p := New(Config{Workers: 2})
	p.Run(func(w *Worker) {
		if got := Reduce(w, 3, 3, 4, func(i int) int { return i }, func(a, b int) int { return a + b }); got != 0 {
			t.Errorf("empty Reduce = %d", got)
		}
		if got := Reduce(w, 7, 8, 4, func(i int) int { return i * i }, func(a, b int) int { return a + b }); got != 49 {
			t.Errorf("single Reduce = %d", got)
		}
	})
}

func TestQuickReduceMatchesSerial(t *testing.T) {
	p := New(Config{Workers: 4})
	prop := func(vals []int32, grain uint8) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		var got int64
		p.Run(func(w *Worker) {
			got = Reduce(w, 0, len(vals), 1+int(grain)%8,
				func(i int) int64 { return int64(vals[i]) },
				func(a, b int64) int64 { return a + b })
		})
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Inline execution on deque overflow keeps Spawn correct.
func TestSpawnInlineOnFullDeque(t *testing.T) {
	p := New(Config{Workers: 1, DequeCapacity: 4})
	var count atomic.Int64
	p.Run(func(w *Worker) {
		for i := 0; i < 100; i++ {
			w.Spawn(func(*Worker) { count.Add(1) })
		}
	})
	if count.Load() != 100 {
		t.Fatalf("count = %d", count.Load())
	}
	if p.Stats().InlineRuns == 0 {
		t.Fatal("expected inline runs with a capacity-4 deque and 100 spawns")
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := New(Config{Workers: 4})
	p.Run(func(w *Worker) { _ = fibPar(w, 18, 4) })
	s := p.Stats()
	if s.TasksRun == 0 || s.Spawns == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
	if s.Steals > s.StealAttempts {
		t.Fatalf("steals %d > attempts %d", s.Steals, s.StealAttempts)
	}
	if runtime.GOMAXPROCS(0) > 1 && s.Steals == 0 {
		t.Log("no steals observed (possible on a loaded machine, but unusual)")
	}
}

func TestWorkerIdentity(t *testing.T) {
	p := New(Config{Workers: 3})
	ids := make(chan int, 1)
	p.Run(func(w *Worker) {
		if w.Pool() != p {
			t.Error("Pool() mismatch")
		}
		ids <- w.ID()
	})
	if id := <-ids; id < 0 || id >= 3 {
		t.Fatalf("worker id %d out of range", id)
	}
}

func TestNewPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative workers":  {Workers: -1},
		"negative capacity": {Workers: 2, DequeCapacity: -5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestChaseLevPool(t *testing.T) {
	// The unbounded deque never runs tasks inline, even with a flood of
	// spawns from one worker.
	p := New(Config{Workers: 2, Deque: DequeChaseLev})
	var count atomic.Int64
	p.Run(func(w *Worker) {
		for i := 0; i < 50000; i++ {
			w.Spawn(func(*Worker) { count.Add(1) })
		}
	})
	if count.Load() != 50000 {
		t.Fatalf("count = %d", count.Load())
	}
	if s := p.Stats(); s.InlineRuns != 0 {
		t.Fatalf("InlineRuns = %d on an unbounded deque", s.InlineRuns)
	}
}

func TestChaseLevPoolFib(t *testing.T) {
	p := New(Config{Workers: 4, Deque: DequeChaseLev})
	var got int
	p.Run(func(w *Worker) { got = fibPar(w, 20, 5) })
	if want := fibSerial(20); got != want {
		t.Fatalf("fib(20) = %d, want %d", got, want)
	}
}

func TestTaskPanicPropagates(t *testing.T) {
	p := New(Config{Workers: 4})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Run(func(w *Worker) {
			w.Spawn(func(*Worker) { panic("boom") })
			// Spawn more work so other workers are busy when the panic hits.
			ParallelFor(w, 0, 100, 4, func(int) {})
		})
	}()
	if recovered == nil {
		t.Fatal("panic did not propagate from Run")
	}
	// The pool is reusable after an aborted run.
	var ok atomic.Bool
	p.Run(func(w *Worker) { ok.Store(true) })
	if !ok.Load() {
		t.Fatal("pool unusable after panic")
	}
}

func TestJoinUnblocksOnAbort(t *testing.T) {
	p := New(Config{Workers: 2})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Run(func(w *Worker) {
			// Fork a task that panics; Join must not hang.
			f := Fork(w, func(*Worker) int { panic("inner") })
			_ = f.Join(w)
		})
	}()
	if recovered == nil {
		t.Fatal("no panic surfaced")
	}
}

func TestMap(t *testing.T) {
	p := New(Config{Workers: 4})
	out := make([]int, 1000)
	p.Run(func(w *Worker) {
		Map(w, out, 16, func(i int) int { return i * i })
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestGroupWaitsForAll(t *testing.T) {
	p := New(Config{Workers: 4})
	var count atomic.Int64
	p.Run(func(w *Worker) {
		g := NewGroup()
		for i := 0; i < 500; i++ {
			g.Spawn(w, func(*Worker) { count.Add(1) })
		}
		g.Wait(w)
		if got := count.Load(); got != 500 {
			t.Errorf("after Wait: %d of 500 tasks done", got)
		}
	})
}

func TestGroupNestedSpawns(t *testing.T) {
	p := New(Config{Workers: 4})
	var count atomic.Int64
	p.Run(func(w *Worker) {
		g := NewGroup()
		var rec func(w *Worker, depth int)
		rec = func(w *Worker, depth int) {
			count.Add(1)
			if depth > 0 {
				g.Spawn(w, func(w2 *Worker) { rec(w2, depth-1) })
				g.Spawn(w, func(w2 *Worker) { rec(w2, depth-1) })
			}
		}
		rec(w, 7)
		g.Wait(w)
		if got := count.Load(); got != 1<<8-1 {
			t.Errorf("count = %d, want %d", got, 1<<8-1)
		}
	})
}

func TestGroupReuse(t *testing.T) {
	p := New(Config{Workers: 2})
	p.Run(func(w *Worker) {
		g := NewGroup()
		for round := 0; round < 3; round++ {
			var n atomic.Int32
			for i := 0; i < 50; i++ {
				g.Spawn(w, func(*Worker) { n.Add(1) })
			}
			g.Wait(w)
			if n.Load() != 50 {
				t.Errorf("round %d: %d of 50", round, n.Load())
			}
		}
	})
}

func TestGroupEmptyWait(t *testing.T) {
	p := New(Config{Workers: 1})
	p.Run(func(w *Worker) {
		NewGroup().Wait(w) // must not hang
	})
}

func TestGroupPanicPropagates(t *testing.T) {
	p := New(Config{Workers: 2})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Run(func(w *Worker) {
			g := NewGroup()
			g.Spawn(w, func(*Worker) { panic("group boom") })
			g.Wait(w)
		})
	}()
	if recovered == nil {
		t.Fatal("panic did not surface")
	}
}

func TestInvoke(t *testing.T) {
	p := New(Config{Workers: 3})
	var a, b, c atomic.Bool
	p.Run(func(w *Worker) {
		Invoke(w,
			func(*Worker) { a.Store(true) },
			func(*Worker) { b.Store(true) },
			func(*Worker) { c.Store(true) },
		)
		if !a.Load() || !b.Load() || !c.Load() {
			t.Error("Invoke returned before all functions completed")
		}
	})
	p.Run(func(w *Worker) { Invoke(w) }) // empty invoke is a no-op
}

func TestJoinBlocksOnSlowTask(t *testing.T) {
	// Force Join's blocking path: the forked task sleeps while the joiner
	// has no other work to help with.
	p := New(Config{Workers: 2})
	p.Run(func(w *Worker) {
		f := Fork(w, func(*Worker) int {
			time.Sleep(20 * time.Millisecond)
			return 99
		})
		if got := f.Join(w); got != 99 {
			t.Errorf("Join = %d", got)
		}
	})
}

func TestGroupWaitBlocksOnSlowTask(t *testing.T) {
	p := New(Config{Workers: 2})
	var done atomic.Bool
	p.Run(func(w *Worker) {
		g := NewGroup()
		g.Spawn(w, func(*Worker) {
			time.Sleep(20 * time.Millisecond)
			done.Store(true)
		})
		g.Wait(w)
		if !done.Load() {
			t.Error("Wait returned before the slow task finished")
		}
	})
}

func TestPoolWorkersAccessor(t *testing.T) {
	if got := New(Config{Workers: 5}).Workers(); got != 5 {
		t.Fatalf("Workers = %d", got)
	}
}
