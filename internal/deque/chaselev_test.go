package deque

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestChaseLevSequentialSemantics(t *testing.T) {
	testSequentialSemantics(t, func() Dequer[int] { return NewChaseLev[int]() })
}

func TestChaseLevEmpty(t *testing.T) {
	d := NewChaseLev[int]()
	if d.PopBottom() != nil || d.PopTop() != nil || d.Len() != 0 {
		t.Fatal("empty deque misbehaved")
	}
	// Pop on empty repeatedly must not corrupt indices.
	for i := 0; i < 5; i++ {
		if d.PopBottom() != nil {
			t.Fatal("phantom item")
		}
	}
	v := 42
	d.PushBottom(&v)
	if got := d.PopBottom(); got == nil || *got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestChaseLevGrowth(t *testing.T) {
	d := NewChaseLev[int]()
	const n = 10000 // far beyond the 64-slot initial ring
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		vals[i] = i
		if !d.PushBottom(&vals[i]) {
			t.Fatal("unbounded push failed")
		}
	}
	if d.Len() != n || d.Room() != math.MaxInt {
		t.Fatalf("Len = %d, Room = %d; want %d and unbounded", d.Len(), d.Room(), n)
	}
	// Order preserved across growth: bottom pops LIFO, top pops FIFO.
	if got := d.PopTop(); got == nil || *got != 0 {
		t.Fatalf("PopTop = %v, want 0", got)
	}
	if got := d.PopBottom(); got == nil || *got != n-1 {
		t.Fatalf("PopBottom = %v, want %d", got, n-1)
	}
	for i := n - 2; i >= 1; i-- {
		if got := d.PopBottom(); got == nil || *got != i {
			t.Fatalf("PopBottom = %v, want %d", got, i)
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("deque should be empty")
	}
}

func TestChaseLevGrowthMidStream(t *testing.T) {
	// Interleave pushes and pops so growth happens with top > 0 (the copy
	// must use absolute indices).
	d := NewChaseLev[int]()
	vals := make([]int, 4096)
	next := 0
	popped := 0
	for round := 0; round < 64; round++ {
		for i := 0; i < 60; i++ {
			vals[next] = next
			d.PushBottom(&vals[next])
			next++
		}
		for i := 0; i < 30; i++ {
			if got := d.PopTop(); got != nil {
				popped++
			}
		}
	}
	// Drain and verify each remaining item appears exactly once.
	seen := make(map[int]bool)
	for {
		got := d.PopBottom()
		if got == nil {
			break
		}
		if seen[*got] {
			t.Fatalf("item %d twice", *got)
		}
		seen[*got] = true
	}
	if popped+len(seen) != next {
		t.Fatalf("accounted %d of %d items", popped+len(seen), next)
	}
}

func TestChaseLevOwnerThiefRace(t *testing.T) {
	testOwnerThiefRace(t, func() Dequer[uint64] { return NewChaseLev[uint64]() }, 4)
}

func TestChaseLevConcurrentGrowth(t *testing.T) {
	// Thieves hammer PopTop while the owner pushes enough to grow several
	// times; every item must be taken exactly once.
	d := NewChaseLev[uint64]()
	const items = 50000
	vals := make([]uint64, items)
	taken := make([]atomic.Uint32, items)
	var stolen atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v := d.PopTop(); v != nil {
					if taken[*v].Add(1) != 1 {
						t.Errorf("item %d stolen twice", *v)
						return
					}
					stolen.Add(1)
				}
				select {
				case <-stop:
					if d.Len() == 0 {
						return
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < items; i++ {
		vals[i] = uint64(i)
		d.PushBottom(&vals[i])
	}
	// Owner drains its share from the bottom.
	owned := int64(0)
	for {
		v := d.PopBottom()
		if v == nil {
			break
		}
		if taken[*v].Add(1) != 1 {
			t.Fatalf("item %d taken twice (owner)", *v)
		}
		owned++
	}
	close(stop)
	wg.Wait()
	// Thieves may still have drained the rest; check totals.
	if got := owned + stolen.Load(); got != items {
		t.Fatalf("accounted %d of %d", got, items)
	}
}

func BenchmarkChaseLevPushPop(b *testing.B) {
	d := NewChaseLev[int]()
	v := 1
	for i := 0; i < b.N; i++ {
		d.PushBottom(&v)
		if d.PopBottom() == nil {
			b.Fatal("lost item")
		}
	}
}
