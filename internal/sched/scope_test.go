// Tests for termination accounting (scope.go): every way a task tree can
// end — forks nobody joins, spawners that return first, chains, trees
// forced across workers, joins from another worker, aborts mid-tree, a
// fleet that shrinks mid-run — must complete its run exactly once, on all
// three deques.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/deque"
	"worksteal/internal/fault"
)

// dequeKind names a deque a test runs the pool's workers on: the ABP deque
// New builds, or one withDeque swaps in — the unbounded Chase–Lev deque,
// under which no spawn falls back to inline execution, or the blocking
// mutex reference deque, the negative control of the non-blocking claim
// (TestChaosMutexDequeControlStalls).
type dequeKind uint8

const (
	dequeABP dequeKind = iota
	dequeMutex
	dequeChaseLev
)

// withDeque gives each of p's workers a fresh deque of kind, bounded as New
// bounded the ABP one. p must not have hosted a session yet.
func withDeque(p *Pool, kind dequeKind) *Pool {
	for _, w := range p.workers {
		switch kind {
		case dequeChaseLev:
			w.dq = deque.NewChaseLev[Task]()
		case dequeMutex:
			w.dq = deque.NewMutexWithCapacity[Task](p.cfg.DequeCapacity)
		}
	}
	return p
}

// newPool is New(cfg) with its workers on deques of kind.
func newPool(kind dequeKind, cfg Config) *Pool { return withDeque(New(cfg), kind) }

// forEachDeque runs f as a subtest per deque.
func forEachDeque(t *testing.T, f func(t *testing.T, kind dequeKind)) {
	for _, dq := range []struct {
		name string
		kind dequeKind
	}{{"ABP", dequeABP}, {"ChaseLev", dequeChaseLev}, {"Mutex", dequeMutex}} {
		t.Run(dq.name, func(t *testing.T) { f(t, dq.kind) })
	}
}

// spinUntil yields inside a task until cond holds, keeping the worker in
// the task — so whatever the task spawned can only leave its deque by a
// steal. It reports a timeout as a test error and gives up.
func spinUntil(t *testing.T, what string, cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		runtime.Gosched()
	}
}

// awaitAbort keeps the task running on w until its submission has aborted:
// a cancellation lands from a goroutine of its own (run.watch), some time
// after the context reads cancelled.
func awaitAbort(t *testing.T, w *Worker) {
	spinUntil(t, "the submission to abort", func() bool { return w.currentRun().state.Load() != runLive })
}

// scopeDepth counts the scopes between s and its submission's root.
func scopeDepth(s *scope) int {
	d := 0
	for ; s.parent != nil; s = s.parent {
		d++
	}
	return d
}

func TestForkNeverJoined(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 4})
		var ran atomic.Int64
		p.Run(func(w *Worker) {
			for i := 0; i < 200; i++ {
				Fork(w, func(c *Worker) int {
					Fork(c, func(*Worker) int { ran.Add(1); return 0 })
					ran.Add(1)
					return i
				})
			}
		})
		if got := ran.Load(); got != 400 {
			t.Fatalf("Run returned with %d of 400 forked tasks run", got)
		}
	})
}

func TestSpawnerReturnsFirst(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 2})
		var rootReturning, childRan atomic.Bool
		p.Run(func(w *Worker) {
			defer rootReturning.Store(true)
			w.Spawn(func(*Worker) {
				spinUntil(t, "the spawner to return", rootReturning.Load)
				time.Sleep(time.Millisecond) // let the root's release land first
				childRan.Store(true)
			})
		})
		if !childRan.Load() {
			t.Fatal("Run returned before the task its root spawned had run")
		}
	})
}

// A chain of tasks that each spawn the next and end: the run completes,
// and neither ended tasks nor scopes pile up behind the chain — a steal of
// the one live task takes its scope over (scope.split), so the scopes nest
// no deeper than the steals that caught a spawner still running.
func TestSpawnChainCompletesWithFlatHeap(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		const n = 100_000
		p := newPool(kind, Config{Workers: 4})
		var before, after runtime.MemStats
		depth := 0
		var link func(i int) func(*Worker)
		link = func(i int) func(*Worker) {
			return func(w *Worker) {
				if i < n {
					w.Spawn(link(i + 1))
					return
				}
				depth = scopeDepth(w.scope)
				runtime.GC()
				runtime.ReadMemStats(&after)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		p.Run(link(0))
		s := p.Stats()
		if s.TasksRun != n+1 {
			t.Fatalf("ran %d of %d tasks", s.TasksRun, n+1)
		}
		// Keeping every ended link reachable (24-byte task, 32-byte closure)
		// would hold 5.6 MB at the last one.
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
			t.Errorf("heap grew by %d bytes along a %d-task chain (%d steals)", grew, n, s.Steals)
		}
		if int64(depth) > s.Steals {
			t.Errorf("scopes nest %d deep after %d steals", depth, s.Steals)
		}
	})
}

// Each link spawns the next and stays in its task until the next has
// started, so every link is stolen while its spawner still counts in the
// scope: the scopes nest one per link, the two workers alternate (each
// steals back from the one that stole from it), and the run ends once the
// releases have climbed the whole chain. The yield failpoint in front of
// every PopTop varies where in the spawner's wait the steal lands.
func TestScopesNestAcrossForcedSteals(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		defer fault.Reset()
		fault.Enable(fpStealBeforePopTop, fault.Rule{Action: fault.ActionYield})
		fault.Enable(fpLoopBeforeSteal, fault.Rule{Action: fault.ActionDelay, Delay: 20 * time.Microsecond, EveryNth: 3})
		const links = 6
		p := newPool(kind, Config{Workers: 2})
		var started [links + 1]atomic.Bool
		var ranOn, depth [links + 1]int
		var link func(i int) func(*Worker)
		link = func(i int) func(*Worker) {
			return func(w *Worker) {
				ranOn[i], depth[i] = w.ID(), scopeDepth(w.scope)
				started[i].Store(true)
				if i == links {
					return
				}
				w.Spawn(link(i + 1))
				spinUntil(t, "the next link to be stolen", started[i+1].Load)
			}
		}
		p.Run(link(0))
		for i := 1; i <= links; i++ {
			if ranOn[i] == ranOn[i-1] {
				t.Errorf("link %d ran on worker %d, like its spawner: it was not stolen", i, ranOn[i])
			}
			if depth[i] != depth[0]+i {
				t.Errorf("link %d ran %d scopes deep, want %d", i, depth[i], depth[0]+i)
			}
		}
		if s := p.Stats(); s.Steals < links || s.TasksRun != links+1 {
			t.Errorf("Steals = %d, TasksRun = %d; want at least %d steals of %d tasks", s.Steals, s.TasksRun, links, links+1)
		}
	})
}

// The forked task publishes its future only once it is running on the
// forker's worker, so the other worker's Join finds nothing to help with
// and must block — on the channel it installs then, which the forked task
// waits to see before it completes.
func TestJoinFromAnotherWorker(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		p := newPool(kind, Config{Workers: 2})
		var joinerUp atomic.Bool
		var fut atomic.Pointer[Future[int]]
		forker, joiner, got := -1, -1, 0
		p.Run(func(w *Worker) {
			forker = w.ID()
			w.Spawn(func(c *Worker) {
				joiner = c.ID()
				joinerUp.Store(true)
				spinUntil(t, "the future to be published", func() bool { return fut.Load() != nil })
				got = fut.Load().Join(c)
			})
			spinUntil(t, "the joiner to be stolen", joinerUp.Load)
			var f *Future[int]
			f = Fork(w, func(*Worker) int {
				fut.Store(f)
				spinUntil(t, "the joiner to install its wait channel", func() bool { return f.ch.p.Load() != nil })
				return 42
			})
			if v := f.Join(w); v != 42 {
				t.Errorf("the forker's Join = %d, want 42", v)
			}
		})
		if joiner == forker {
			t.Fatalf("joiner and forker both ran on worker %d", forker)
		}
		if got != 42 {
			t.Fatalf("Join from worker %d of a future forked on worker %d = %d, want 42", joiner, forker, got)
		}
	})
}

// A panic or a cancellation in the middle of a spawn tree: the Handle has
// one outcome, which later causes do not change, and once the pool has
// stopped every task ever spawned is accounted for exactly once — run,
// discarded at a pop, or swept from a deque.
func TestAbortMidTreeAccountsForEverySpawn(t *testing.T) {
	for _, mode := range []string{"panic", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			forEachDeque(t, func(t *testing.T, kind dequeKind) {
				p := newPool(kind, Config{Workers: 4})
				stop := startServing(t, p)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var spawned atomic.Int64
				var tripped atomic.Bool
				var tree func(d int) func(*Worker)
				tree = func(d int) func(*Worker) {
					return func(w *Worker) {
						if d == 0 {
							return
						}
						for i := 0; i < 3; i++ {
							spawned.Add(1)
							w.Spawn(tree(d - 1))
						}
						if d == 4 && tripped.CompareAndSwap(false, true) {
							if mode == "panic" {
								panic("boom")
							}
							// The watcher aborts on a goroutine of its own:
							// keep the tree un-ended until it has.
							cancel()
							awaitAbort(t, w)
						}
					}
				}
				h, err := p.SubmitContext(ctx, tree(7))
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				first := h.Wait()
				var pe PanicError
				if mode == "panic" && !(errors.As(first, &pe) && pe.Value == "boom") {
					t.Fatalf("Wait = %v, want the task's panic", first)
				}
				if mode == "cancel" && !errors.Is(first, context.Canceled) {
					t.Fatalf("Wait = %v, want context.Canceled", first)
				}
				cancel() // a second cause, after the outcome: it must not replace it
				if again := h.Wait(); again != first {
					t.Errorf("second Wait = %v, first was %v", again, first)
				}
				if e := h.Err(); e != first {
					t.Errorf("Err = %v, Wait was %v", e, first)
				}
				if err := stop(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Serve returned %v", err)
				}
				s := p.Stats()
				if s.Spawns != spawned.Load() {
					t.Errorf("Stats.Spawns = %d, the tree spawned %d", s.Spawns, spawned.Load())
				}
				if got, want := s.TasksRun+s.TasksCancelled+s.TasksDropped, spawned.Load()+1; got != want {
					t.Errorf("TasksRun %d + TasksCancelled %d + TasksDropped %d = %d, want %d (every spawn and the root)",
						s.TasksRun, s.TasksCancelled, s.TasksDropped, got, want)
				}
			})
		})
	}
}

// A worker that is told to retire with a full deque hands its tasks back
// through the injector (resize.go): they run elsewhere, in scopes of their
// own, and the run they belong to completes.
func TestRetiringWorkerRepublishedTasksCompleteRun(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		const children = 50
		p := newPool(kind, Config{Workers: 4})
		var ran, onRetiree atomic.Int64
		retiree := -1
		var hop func(w *Worker)
		hop = func(w *Worker) {
			if w.ID() == 0 {
				// Worker 0 never retires: stay here until another worker
				// has stolen the job.
				var stolen atomic.Bool
				w.Spawn(func(c *Worker) { stolen.Store(true); hop(c) })
				spinUntil(t, "the shrinking task to be stolen", stolen.Load)
				return
			}
			retiree = w.ID()
			for i := 0; i < children; i++ {
				w.Spawn(func(c *Worker) {
					if c.ID() == retiree {
						onRetiree.Add(1)
					}
					ran.Add(1)
				})
			}
			// Shrink to worker 0 from inside the task: this worker finds its
			// retiring mark at the loop's next safe point, with the children
			// still in its deque.
			if err := w.Pool().Resize(1); err != nil {
				t.Errorf("Resize(1): %v", err)
			}
		}
		p.Run(hop)
		if got := ran.Load(); got != children {
			t.Fatalf("Run returned with %d of %d republished tasks run", got, children)
		}
		if got := onRetiree.Load(); got != 0 {
			t.Errorf("%d tasks ran on worker %d after it was told to retire", got, retiree)
		}
		if s := p.Stats(); s.WorkersRetired < 1 || s.TasksDropped != 0 || s.TasksCancelled != 0 {
			t.Errorf("WorkersRetired = %d, TasksDropped = %d, TasksCancelled = %d after a clean shrink", s.WorkersRetired, s.TasksDropped, s.TasksCancelled)
		}
	})
}

// The zero Group works, and one Group serves many generations of members
// and waiters: a member's done that is still on its way to the channel
// when the next generation's waiter installs one may close that one — the
// waiter then finds members pending and waits again, so no generation's
// Wait returns early or hangs.
func TestGroupReuseAcrossGenerations(t *testing.T) {
	p := New(Config{Workers: 4})
	p.Run(func(w *Worker) {
		var g Group
		for gen := 0; gen < 300; gen++ {
			var n atomic.Int32
			for i := 0; i < 6; i++ {
				g.Spawn(w, func(c *Worker) {
					if gen%3 == 0 {
						time.Sleep(20 * time.Microsecond) // outlast the waiter's help loop: it blocks
					}
					g.Spawn(c, func(*Worker) { n.Add(1) })
					n.Add(1)
				})
			}
			g.Wait(w)
			if got := n.Load(); got != 12 {
				t.Errorf("generation %d: Wait returned with %d of 12 members done", gen, got)
			}
		}
	})
}
