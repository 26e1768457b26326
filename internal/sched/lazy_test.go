package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/fault"
)

// occupy spawns a task that keeps the pool's other worker out of the way
// until the returned release is called: w spins until that worker has
// stolen it, so it holds no public fork when the caller goes on, and no
// request the thief made before it took the blocker stands.
func occupy(t *testing.T, w *Worker) (release func()) {
	var started, freed atomic.Bool
	w.Spawn(func(*Worker) {
		started.Store(true)
		for !freed.Load() {
			time.Sleep(50 * time.Microsecond)
		}
	})
	spinUntil(t, "the other worker to take the blocker", started.Load)
	w.wantWork.Store(0)
	return func() { freed.Store(true) }
}

// Rule 2: a private fork whose owner's public part a thief found empty is
// published at the owner's next engine call — here the fork of a Join2 —
// and stolen, while the owner spins in user code it could not leave.
func TestLazyExposeOnRequest(t *testing.T) {
	p := New(Config{Workers: 2})
	var aRan, fStarted atomic.Bool
	fOn, ownerID := -1, -1
	p.Run(func(w *Worker) {
		ownerID = w.ID()
		release := occupy(t, w)
		Join2(w, func(*Worker) int { aRan.Store(true); return 0 }, func(c *Worker) int {
			// A is the public part, so F goes private.
			Join2(c, func(c *Worker) int { fOn = c.ID(); fStarted.Store(true); return 0 }, func(c *Worker) int {
				if n := w.lazyTail - w.lazyHead; n != 1 {
					t.Errorf("the region holds %d forks, want F alone", n)
				}
				release()
				spinUntil(t, "the thief to take A and ask for more", func() bool {
					return aRan.Load() && w.wantWork.Load() != 0
				})
				Join2(c, func(*Worker) int { return 0 }, func(*Worker) int { return 0 })
				spinUntil(t, "F to be stolen", fStarted.Load)
				return 0
			})
			return 0
		})
	})
	if fOn != 1-ownerID {
		t.Errorf("F ran on worker %d, want the thief, %d", fOn, 1-ownerID)
	}
	if s := p.Stats(); s.TasksRun != 5 || s.Spawns != 4 {
		t.Errorf("TasksRun = %d, Spawns = %d; want 5 and 4", s.TasksRun, s.Spawns)
	}
}

// Rule 1's bound: an owner frozen as it publishes, its region full, strands
// lazyK forks, every one younger than the fork it left public — which the
// thief takes. Resumed, it publishes them: every task runs once, and the
// counts are exact.
func TestLazyStrandedResumes(t *testing.T) {
	defer fault.Reset()
	p := New(Config{Workers: 2})
	var owner *Worker
	const forks = lazyK + 2
	var ran [forks]atomic.Int32
	leaf := func(i int) func(*Worker) int {
		return func(*Worker) int { ran[i].Add(1); return i }
	}
	var release func()
	// nest forks leaf i at depth i: leaf 0 public, the next lazyK private,
	// and the last one's fork publishes the oldest of them — frozen.
	var nest func(w *Worker, i int) int
	nest = func(w *Worker, i int) int {
		if i == forks {
			return 0
		}
		if i == forks-1 {
			if n := owner.lazyTail - owner.lazyHead; n != lazyK {
				t.Errorf("the region holds %d forks before the last one, want %d", n, lazyK)
			}
			fault.Enable(fpSpawnBeforePublish, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
			release()
		}
		a, b := Join2(w, leaf(i), func(c *Worker) int { return nest(c, i+1) })
		return a + b
	}
	sum := make(chan int, 1)
	ready := make(chan struct{})
	go p.Run(func(w *Worker) {
		owner = w
		close(ready)
		release = occupy(t, w)
		sum <- nest(w, 0)
	})
	<-ready
	waitFor(t, 10*time.Second, "the owner to freeze", func() bool { return fault.Suspended(fpSpawnBeforePublish) == 1 })
	waitFor(t, 10*time.Second, "the thief to take leaf 0 and ask for more", func() bool {
		return ran[0].Load() == 1 && owner.wantWork.Load() != 0
	})
	for i := 1; i <= lazyK; i++ {
		if ran[i].Load() != 0 {
			t.Errorf("leaf %d ran while its owner was frozen with it in the region", i)
		}
	}
	fault.Resume(fpSpawnBeforePublish)
	select {
	case got := <-sum:
		if want := forks * (forks - 1) / 2; got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the run did not finish after the owner was resumed")
	}
	waitFor(t, 10*time.Second, "Run to return", func() bool { return p.phase.Load() == phaseIdle })
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Errorf("leaf %d ran %d times, want once", i, n)
		}
	}
	// The root, the blocker and the leaves.
	if s := p.Stats(); s.TasksRun != forks+2 || s.Spawns != forks+1 {
		t.Errorf("TasksRun = %d, Spawns = %d; want %d and %d", s.TasksRun, s.Spawns, forks+2, forks+1)
	}
}

// A deque whose thieves moved its top has room for fewer pushes than its
// capacity less its length: PushBottom fails on bot, not on Len. Five of
// six spawns are stolen — the thief then held in the fifth — so the public
// part holds one task but bot is six of eight. A Reduce tree and a Join2
// tree on top of it must fill the region no further than the deque can
// take it back: every leaf runs once, the sums are right and the counts
// exact. A region past Room would make a publish the deque refuses run its
// fork inline, and that exec publish the rest of the region under the loop
// that was publishing it.
func TestLazyRegionFitsStolenDeque(t *testing.T) {
	forEachDeque(t, func(t *testing.T, kind dequeKind) {
		const spawns, leaves, fibN = 6, 1024, 16
		p := newPool(kind, Config{Workers: 2, DequeCapacity: 8})
		var spawned atomic.Int32
		var leafRuns [leaves]atomic.Int32
		var sum, fib int
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Run(func(w *Worker) {
				var held, freed atomic.Bool
				for i := range spawns {
					w.Spawn(func(*Worker) {
						spawned.Add(1)
						if i == spawns-2 {
							held.Store(true)
							for !freed.Load() {
								time.Sleep(50 * time.Microsecond)
							}
						}
					})
				}
				spinUntil(t, "the thief to take five spawns and hold the fifth", held.Load)
				sum = Reduce(w, 0, leaves, 1, func(i int) int { leafRuns[i].Add(1); return i }, func(a, b int) int { return a + b })
				fib = fibPar(w, fibN, 2)
				freed.Store(true)
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the run did not finish")
		}
		if want := leaves * (leaves - 1) / 2; sum != want {
			t.Errorf("Reduce = %d, want %d", sum, want)
		}
		if want := fibSerial(fibN); fib != want {
			t.Errorf("fib(%d) = %d, want %d", fibN, fib, want)
		}
		for i := range leafRuns {
			if n := leafRuns[i].Load(); n != 1 {
				t.Errorf("leaf %d ran %d times, want once", i, n)
			}
		}
		if n := spawned.Load(); n != spawns {
			t.Errorf("%d of %d spawns ran", n, spawns)
		}
		// fibPar(n, 2) forks once per call with n >= 2: fib(n+1)-1 calls.
		forks := int64(spawns + leaves - 1 + fibSerial(fibN+1) - 1)
		if s := p.Stats(); s.TasksRun != forks+1 || s.Spawns != forks {
			t.Errorf("TasksRun = %d, Spawns = %d; want %d and %d", s.TasksRun, s.Spawns, forks+1, forks)
		}
	})
}

// A blocked owner strands no fork: help takes the region before it lets a
// wait block, so a Group.Wait — or a Join — sleeps with the region empty.
// The group's member is the owner's public part, so the Join2's F goes to
// the region; the other worker steals the member, and the Join2's second
// half waits for it: F runs, on the owner, before the owner sleeps in the
// group's slot, though nothing public is left for the wait to run.
func TestLazyBlockedWaitRunsRegionFirst(t *testing.T) {
	p := New(Config{Workers: 2})
	var fRan, memberStarted atomic.Bool
	g := NewGroup()
	p.Run(func(w *Worker) {
		release := occupy(t, w)
		g.Spawn(w, func(*Worker) {
			memberStarted.Store(true)
			spinUntil(t, "the owner to sleep in the group's wait", func() bool { return g.rec.sleeper.Load() != nil })
			if !fRan.Load() {
				t.Error("the owner went to sleep with F in its region")
			}
		})
		Join2(w, func(*Worker) int { fRan.Store(true); return 0 }, func(c *Worker) int {
			if n := w.lazyTail - w.lazyHead; n != 1 {
				t.Errorf("the region holds %d forks, want F alone", n)
			}
			release()
			spinUntil(t, "the other worker to take the member", memberStarted.Load)
			g.Wait(c)
			return 0
		})
	})
	if s := p.Stats(); s.TasksRun != 4 || s.Spawns != 3 {
		t.Errorf("TasksRun = %d, Spawns = %d; want 4 and 3", s.TasksRun, s.Spawns)
	}
}

// A running owner strands its region too: the owner polls wantWork only at
// a fork or a pop-back, so a leaf that spins holds its private forks out of
// reach for as long as it runs. What it holds is bounded all the same — the
// youngest lazyK forks, here the 1-, 2-, 4- and 8-leaf subtrees beside leaf
// 0 — and every other subtree is stolen and run while leaf 0 spins.
func TestLazyLongLeafStrandsOnlyItsRegion(t *testing.T) {
	const leaves = 256
	stranded := 1<<lazyK - 1
	p := New(Config{Workers: 3})
	var others atomic.Int32
	var sum int
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(w *Worker) {
			sum = Reduce(w, 0, leaves, 1, func(i int) int {
				if i != 0 {
					others.Add(1)
					return i
				}
				deadline := time.Now().Add(10 * time.Second)
				for others.Load() < int32(leaves-1-stranded) && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
				if n := others.Load(); n < int32(leaves-1-stranded) {
					t.Errorf("%d of the %d other leaves ran while leaf 0 held its worker; want all but the %d of the region's subtrees",
						n, leaves-1, stranded)
				}
				return 0
			}, func(a, b int) int { return a + b })
		})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the run did not finish")
	}
	if want := leaves * (leaves - 1) / 2; sum != want {
		t.Errorf("Reduce = %d, want %d", sum, want)
	}
	if s := p.Stats(); s.TasksRun != leaves || s.Spawns != leaves-1 {
		t.Errorf("TasksRun = %d, Spawns = %d; want %d and %d", s.TasksRun, s.Spawns, leaves, leaves-1)
	}
}
