package sched

// rangeTask is the right half of a Reduce or ParallelFor split: the
// arguments of the recursive call on it, and the Future that is the fork's
// task and result. It never reaches user code, so it is recycled through
// the worker's free list of range records (DESIGN.md §7, "Record
// recycling"). Its fn is its own compute, bound once when the record is
// made: a recycled record forks with no allocation, and is joined, called
// back and stolen through the Future's paths unchanged.
type rangeTask[T any] struct {
	Future[T]
	lo, hi, grain int
	leaf          func(i int) T
	combine       func(a, b T) T
	body          func(i int) // ParallelFor's; nil for a Reduce
}

// forkRange forks the right half [lo, hi) of a split on a range record: a
// ParallelFor's if body is non-nil, else a Reduce's.
func forkRange[T any](w *Worker, lo, hi, grain int, leaf func(int) T, combine func(T, T) T, body func(int)) *rangeTask[T] {
	r := takeRange[T](w)
	r.lo, r.hi, r.grain, r.leaf, r.combine, r.body = lo, hi, grain, leaf, combine, body
	r.start(w)
	return r
}

// compute is the recursive call on the record's half.
func (r *rangeTask[T]) compute(w *Worker) T {
	if r.body != nil {
		ParallelFor(w, r.lo, r.hi, r.grain, r.body)
		var zero T
		return zero
	}
	return Reduce(w, r.lo, r.hi, r.grain, r.leaf, r.combine)
}

// takeRange returns a pending range record: the one w freed last, or a new
// one when the list is empty or holds records of another result type.
func takeRange[T any](w *Worker) *rangeTask[T] {
	if r, ok := takeRecord[*rangeTask[T]](&w.ranges, &w.nRanges); ok {
		return r
	}
	r := new(rangeTask[T])
	r.fn = r.compute
	return r
}

// joinFree is Future.joinFree for a range record, which goes back to w's
// list of range records. The join is written out in both, not shared: a
// generic helper calls the record's free through its dictionary, a call
// per join that the method's own free is not.
func (r *rangeTask[T]) joinFree(w *Worker) T {
	if !r.Done() && w.popBack(&r.task) {
		r.call(w)
	} else {
		r.wait(w, true)
		r.ch.p.Store(nil)
	}
	v := r.result
	r.free(w)
	return v
}

// free is Future.free for a range record: the user's functions and the
// result are dropped, fn — the record's own — is kept.
//
//abp:owner the free lists belong to the goroutine running the worker
func (r *rangeTask[T]) free(w *Worker) {
	var zero T
	r.result, r.leaf, r.combine, r.body = zero, nil, nil, nil
	putRecord(&w.ranges, &w.nRanges, r)
}

// ParallelFor executes body(i) for every i in [lo, hi), splitting the range
// recursively until pieces are at most grain wide. Splitting forks the right
// half and descends into the left, so un-stolen execution is a plain
// left-to-right loop. As with Join2, a stolen right half may run before,
// after or beside the left one, so no body may block on another.
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
	right := forkRange[struct{}](w, mid, hi, grain, nil, nil, body)
	ParallelFor(w, lo, mid, grain, body)
	right.joinFree(w)
}

// Reduce computes combine over leaf(i) for i in [lo, hi) with a parallel
// divide-and-conquer tree. combine must be associative; leaves are combined
// left to right, but computed in any order: as with Join2, the two halves of
// a split may run in either order, so no leaf may block on another.
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
	right := forkRange(w, mid, hi, grain, leaf, combine, nil)
	left := Reduce(w, lo, mid, grain, leaf, combine)
	return combine(left, right.joinFree(w))
}

// Map fills out[i] = fn(i) for i in [0, len(out)) in parallel.
func Map[T any](w *Worker, out []T, grain int, fn func(i int) T) {
	ParallelFor(w, 0, len(out), grain, func(i int) { out[i] = fn(i) })
}
