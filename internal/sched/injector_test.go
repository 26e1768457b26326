// Unit tests for the bounded MPMC injector ring (injector.go): FIFO
// order, the full/empty boundary conditions, lap wrap-around, and
// exactly-once delivery under concurrent producers and consumers.
package sched

import (
	"sync"
	"testing"
)

func TestInjectorFIFO(t *testing.T) {
	q := newInjector(8)
	tasks := make([]*Task, 5)
	for i := range tasks {
		tasks[i] = &Task{}
		if !q.TryPush(tasks[i]) {
			t.Fatalf("TryPush %d failed on a non-full ring", i)
		}
	}
	if got := q.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	for i := range tasks {
		if got := q.TryPop(); got != tasks[i] {
			t.Fatalf("TryPop %d = %p, want %p (FIFO order)", i, got, tasks[i])
		}
	}
	if got := q.TryPop(); got != nil {
		t.Fatalf("TryPop on empty = %p, want nil", got)
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
}

func TestInjectorFullRejects(t *testing.T) {
	q := newInjector(4)
	for i := 0; i < 4; i++ {
		if !q.TryPush(&Task{}) {
			t.Fatalf("TryPush %d failed below capacity", i)
		}
	}
	if q.TryPush(&Task{}) {
		t.Fatal("TryPush succeeded on a full ring")
	}
	if q.TryPop() == nil {
		t.Fatal("TryPop failed on a full ring")
	}
	// One slot freed: admission resumes.
	if !q.TryPush(&Task{}) {
		t.Fatal("TryPush failed after a pop freed a slot")
	}
}

// The capacity rounds up to a power of two; the bound the caller gets is
// at least what was asked for.
func TestInjectorCapacityRounding(t *testing.T) {
	q := newInjector(3)
	if got := len(q.cells); got != 4 {
		t.Fatalf("newInjector(3) allocated %d cells, want 4", got)
	}
	if q.mask != 3 {
		t.Fatalf("mask = %d, want 3", q.mask)
	}
	// Minimum capacity is 2: a 1-cell Vyukov ring cannot distinguish
	// "full" from "free on the next lap" (see newInjector's comment), so a
	// second push would overwrite the unconsumed task instead of
	// reporting full.
	q = newInjector(1)
	if got := len(q.cells); got != 2 {
		t.Fatalf("newInjector(1) allocated %d cells, want 2 (the Vyukov minimum)", got)
	}
	for i := 0; i < 2; i++ {
		if !q.TryPush(&Task{}) {
			t.Fatalf("TryPush %d failed below the rounded capacity", i)
		}
	}
	if q.TryPush(&Task{}) {
		t.Fatal("TryPush overwrote a full minimum-capacity ring")
	}
}

// Push/pop far more items than the capacity through a tiny ring, so every
// cell cycles through many laps and the seq arithmetic is exercised past
// the first wrap.
func TestInjectorWrapAround(t *testing.T) {
	q := newInjector(2)
	tasks := make([]*Task, 1000)
	for i := range tasks {
		tasks[i] = &Task{}
	}
	next := 0
	for i := range tasks {
		if !q.TryPush(tasks[i]) {
			t.Fatalf("TryPush %d failed", i)
		}
		if i%2 == 1 { // drain in pairs to force both cells through laps
			for j := 0; j < 2; j++ {
				got := q.TryPop()
				if got != tasks[next] {
					t.Fatalf("TryPop = %p, want tasks[%d]=%p", got, next, tasks[next])
				}
				next++
			}
		}
	}
	if got := q.TryPop(); got != nil {
		t.Fatalf("ring not empty after balanced push/pop: %p", got)
	}
}

// Exactly-once delivery under contention: many producers push distinct
// tasks while many consumers drain; every task comes out exactly once.
func TestInjectorConcurrent(t *testing.T) {
	const producers, perProducer, consumers = 4, 500, 4
	q := newInjector(64)
	seen := make(chan *Task, producers*perProducer)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func() {
			defer wg.Done()
			for {
				if task := q.TryPop(); task != nil {
					seen <- task
					continue
				}
				select {
				case <-done:
					// Producers finished; one last sweep for stragglers.
					for task := q.TryPop(); task != nil; task = q.TryPop() {
						seen <- task
					}
					return
				default:
				}
			}
		}()
	}

	var pwg sync.WaitGroup
	pwg.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				task := &Task{}
				for !q.TryPush(task) {
					// Full: consumers are behind; retry.
				}
			}
		}()
	}
	pwg.Wait()
	close(done)
	wg.Wait()
	close(seen)

	got := make(map[*Task]int)
	for task := range seen {
		got[task]++
	}
	if len(got) != producers*perProducer {
		t.Fatalf("delivered %d distinct tasks, want %d", len(got), producers*perProducer)
	}
	for task, n := range got {
		if n != 1 {
			t.Fatalf("task %p delivered %d times", task, n)
		}
	}
}
