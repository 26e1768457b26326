package sched

import (
	"fmt"
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
