// Fib: the canonical fork-join workload (the same shape as workload.FibDag,
// which the paper's analysis is exercised on), computed with real work on
// the native pool and compared against the serial version.
//
// Run with:
//
//	go run ./examples/fib -n 30 -cutoff 14 -workers 4
package main

import (
	"flag"
	"fmt"
	"time"

	"worksteal/internal/sched"
)

func fibSerial(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

// fibPar forks fib(n-1) while computing fib(n-2) inline, joining at the
// end: node a spawns, node b recurses, node c joins, exactly the three-node
// thread body of workload.FibDag.
func fibPar(w *sched.Worker, n, cutoff int) uint64 {
	if n < cutoff {
		return fibSerial(n)
	}
	a, b := sched.Join2(w,
		func(w2 *sched.Worker) uint64 { return fibPar(w2, n-1, cutoff) },
		func(w2 *sched.Worker) uint64 { return fibPar(w2, n-2, cutoff) })
	return a + b
}

func main() {
	n := flag.Int("n", 30, "fibonacci index")
	cutoff := flag.Int("cutoff", 14, "serial cutoff")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	flag.Parse()

	start := time.Now()
	want := fibSerial(*n)
	serial := time.Since(start)

	pool := sched.New(sched.Config{Workers: *workers})
	var got uint64
	start = time.Now()
	pool.Run(func(w *sched.Worker) { got = fibPar(w, *n, *cutoff) })
	parallel := time.Since(start)

	if got != want {
		panic(fmt.Sprintf("fib mismatch: %d != %d", got, want))
	}
	s := pool.Stats()
	fmt.Printf("fib(%d) = %d\n", *n, got)
	fmt.Printf("serial   %v\n", serial)
	fmt.Printf("parallel %v on %d workers (speedup %.2f)\n",
		parallel, pool.Workers(), float64(serial)/float64(parallel))
	fmt.Printf("%d tasks, %d steals / %d attempts\n", s.TasksRun, s.Steals, s.StealAttempts)
	fmt.Printf("idle lifecycle: %d parks, %d wakes\n", s.Parks, s.Wakes)
}
