package sched

// ParallelFor executes body(i) for every i in [lo, hi), splitting the range
// recursively until pieces are at most grain wide. Splitting forks the right
// half and descends into the left, so un-stolen execution is a plain
// left-to-right loop.
func ParallelFor(w *Worker, lo, hi, grain int, body func(i int)) {
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(i)
		}
		return
	}
	mid := lo + (hi-lo)/2
	right := takeFuture[struct{}](w).fork(w, func(inner *Worker) struct{} {
		ParallelFor(inner, mid, hi, grain, body)
		return struct{}{}
	})
	ParallelFor(w, lo, mid, grain, body)
	right.joinFree(w)
}

// Reduce computes combine over leaf(i) for i in [lo, hi) with a parallel
// divide-and-conquer tree. combine must be associative; leaves are combined
// left to right.
func Reduce[T any](w *Worker, lo, hi, grain int, leaf func(i int) T, combine func(a, b T) T) T {
	if grain < 1 {
		grain = 1
	}
	if hi <= lo {
		var zero T
		return zero
	}
	if hi-lo <= grain {
		acc := leaf(lo)
		for i := lo + 1; i < hi; i++ {
			acc = combine(acc, leaf(i))
		}
		return acc
	}
	mid := lo + (hi-lo)/2
	right := takeFuture[T](w).fork(w, func(inner *Worker) T {
		return Reduce(inner, mid, hi, grain, leaf, combine)
	})
	left := Reduce(w, lo, mid, grain, leaf, combine)
	return combine(left, right.joinFree(w))
}

// Map fills out[i] = fn(i) for i in [0, len(out)) in parallel.
func Map[T any](w *Worker, out []T, grain int, fn func(i int) T) {
	ParallelFor(w, 0, len(out), grain, func(i int) { out[i] = fn(i) })
}
