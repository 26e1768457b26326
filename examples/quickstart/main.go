// Quickstart: the smallest useful program on the work-stealing pool.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"worksteal/internal/sched"
)

func main() {
	// A pool of workers; each worker owns a non-blocking ABP deque and
	// steals from random victims when idle, per Arora-Blumofe-Plaxton.
	pool := sched.New(sched.Config{Workers: 4})

	// Run blocks until the root task and everything it spawned finish.
	var sum int64
	pool.Run(func(w *sched.Worker) {
		// Data parallelism: a parallel loop...
		squares := make([]int64, 1000)
		sched.ParallelFor(w, 0, len(squares), 32, func(i int) {
			squares[i] = int64(i) * int64(i)
		})

		// ...and a parallel reduction over the results.
		sum = sched.Reduce(w, 0, len(squares), 32,
			func(i int) int64 { return squares[i] },
			func(a, b int64) int64 { return a + b })
	})
	fmt.Println("sum of squares 0..999 =", sum)

	// Task parallelism: fork two computations and join their results.
	var hi, lo string
	pool.Run(func(w *sched.Worker) {
		future := sched.Fork(w, func(*sched.Worker) string { return "world" })
		hi = "hello"
		lo = future.Join(w) // runs other tasks while waiting
	})
	fmt.Println(hi, lo)

	// The full counter table: besides tasks/steals it shows the idle
	// lifecycle (parks, wakes) — idle workers park instead of
	// spinning, so an idle pool costs ~0 CPU.
	fmt.Print(pool.Stats())
}
