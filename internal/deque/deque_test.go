package deque

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func intp(v int) *int { x := v; return &x }

func TestPackUnpackAge(t *testing.T) {
	cases := []struct{ tag, top uint32 }{
		{0, 0}, {1, 0}, {0, 1}, {7, 42}, {^uint32(0), ^uint32(0)}, {1 << 31, 1 << 30},
	}
	for _, c := range cases {
		tag, top := unpackAge(packAge(c.tag, c.top))
		if tag != c.tag || top != c.top {
			t.Errorf("pack/unpack(%d,%d) = (%d,%d)", c.tag, c.top, tag, top)
		}
	}
}

func TestQuickPackAgeRoundTrip(t *testing.T) {
	prop := func(tag, top uint32) bool {
		a, b := unpackAge(packAge(tag, top))
		return a == tag && b == top
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// sequential LIFO/FIFO semantics against a reference model, for both
// implementations.
func testSequentialSemantics(t *testing.T, mk func() Dequer[int]) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := mk()
		var model []*int // model[0] is top
		next := 0
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // pushBottom
				v := intp(next)
				next++
				if d.PushBottom(v) {
					model = append(model, v)
				} else if len(model) < DefaultCapacity {
					t.Fatalf("PushBottom failed below capacity")
				}
			case 1: // popBottom
				got := d.PopBottom()
				var want *int
				if len(model) > 0 {
					want = model[len(model)-1]
					model = model[:len(model)-1]
				}
				if got != want {
					t.Fatalf("trial %d op %d: PopBottom = %v, want %v", trial, op, got, want)
				}
			case 2: // popTop (no concurrency: must behave ideally)
				got := d.PopTop()
				var want *int
				if len(model) > 0 {
					want = model[0]
					model = model[1:]
				}
				if got != want {
					t.Fatalf("trial %d op %d: PopTop = %v, want %v", trial, op, got, want)
				}
			}
			if d.Len() != len(model) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, d.Len(), len(model))
			}
		}
	}
}

func TestABPSequentialSemantics(t *testing.T) {
	testSequentialSemantics(t, func() Dequer[int] { return New[int]() })
}

func TestMutexSequentialSemantics(t *testing.T) {
	testSequentialSemantics(t, func() Dequer[int] { return NewMutex[int]() })
}

func TestEmptyDeque(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Dequer[int]
	}{{"abp", New[int]()}, {"mutex", NewMutex[int]()}} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.d.PopBottom(); got != nil {
				t.Errorf("PopBottom on empty = %v", got)
			}
			if got := tc.d.PopTop(); got != nil {
				t.Errorf("PopTop on empty = %v", got)
			}
			if tc.d.Len() != 0 {
				t.Errorf("Len on empty = %d", tc.d.Len())
			}
		})
	}
}

// The zero Deque is a deque of capacity zero: it refuses every push and
// pops nothing, without writing a word — the scheduler's caller-runs worker
// runs every spawn inline on one.
func TestZeroValueRefusesEveryPush(t *testing.T) {
	var d Deque[int]
	if d.PushBottom(intp(1)) {
		t.Error("PushBottom on the zero deque succeeded")
	}
	if got := d.PopBottom(); got != nil {
		t.Errorf("PopBottom on the zero deque = %v", got)
	}
	if got := d.PopTop(); got != nil {
		t.Errorf("PopTop on the zero deque = %v", got)
	}
	if d.Len() != 0 || d.Cap() != 0 {
		t.Errorf("zero deque: Len %d, Cap %d, want 0 and 0", d.Len(), d.Cap())
	}
}

func TestCapacityBound(t *testing.T) {
	d := NewWithCapacity[int](4)
	if d.Cap() != 4 {
		t.Fatalf("Cap = %d", d.Cap())
	}
	for i := 0; i < 4; i++ {
		if !d.PushBottom(intp(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if d.PushBottom(intp(99)) {
		t.Fatalf("push beyond capacity succeeded")
	}
	// Draining from the top does NOT free slots in the ABP deque until the
	// owner's popBottom crosses empty and resets the indices.
	if got := d.PopTop(); got == nil || *got != 0 {
		t.Fatalf("PopTop = %v, want 0", got)
	}
	if d.PushBottom(intp(99)) {
		t.Fatalf("push should still fail: bot index unchanged by steals")
	}
	// Draining from the bottom resets the indices at empty.
	for i := 3; i >= 1; i-- {
		if got := d.PopBottom(); got == nil || *got != i {
			t.Fatalf("PopBottom = %v, want %d", got, i)
		}
	}
	if got := d.PopBottom(); got != nil {
		t.Fatalf("PopBottom on drained deque = %v", got)
	}
	for i := 0; i < 4; i++ {
		if !d.PushBottom(intp(i)) {
			t.Fatalf("push %d after reset failed", i)
		}
	}
}

func TestMutexCapacityBound(t *testing.T) {
	d := NewMutexWithCapacity[int](2)
	if d.Cap() != 2 {
		t.Fatalf("Cap = %d", d.Cap())
	}
	if !d.PushBottom(intp(1)) || !d.PushBottom(intp(2)) {
		t.Fatal("push failed")
	}
	if d.PushBottom(intp(3)) {
		t.Fatal("push beyond capacity succeeded")
	}
	if got := d.PopTop(); got == nil || *got != 1 {
		t.Fatalf("PopTop = %v", got)
	}
	if !d.PushBottom(intp(3)) {
		t.Fatal("push after popTop failed (mutex deque frees slots)")
	}
}

func TestNewPanics(t *testing.T) {
	for _, capacity := range []int{0, -1, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWithCapacity(%d) did not panic", capacity)
				}
			}()
			NewWithCapacity[int](capacity)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("NewMutexWithCapacity(0) did not panic")
			}
		}()
		NewMutexWithCapacity[int](0)
	}()
}

func TestReset(t *testing.T) {
	d := NewWithCapacity[int](8)
	for i := 0; i < 5; i++ {
		d.PushBottom(intp(i))
	}
	tagBefore, _ := unpackAge(d.age.Load())
	d.Reset()
	if d.Len() != 0 || !d.Empty() {
		t.Fatalf("Len after Reset = %d", d.Len())
	}
	tagAfter, top := unpackAge(d.age.Load())
	if tagAfter != tagBefore+1 || top != 0 {
		t.Fatalf("age after Reset = (%d,%d), want (%d,0)", tagAfter, top, tagBefore+1)
	}
	if got := d.PopBottom(); got != nil {
		t.Fatalf("PopBottom after Reset = %v", got)
	}
	if !d.PushBottom(intp(42)) {
		t.Fatal("push after Reset failed")
	}
	if got := d.PopTop(); got == nil || *got != 42 {
		t.Fatalf("PopTop after Reset = %v", got)
	}
}

// TestOwnerThiefRace exercises the popBottom/popTop race for the last item:
// every item must be taken exactly once, by exactly one process.
func testOwnerThiefRace(t *testing.T, mk func() Dequer[uint64], thieves int) {
	const items = 20000
	d := mk()
	taken := make([]atomic.Uint32, items)
	var stolen, popped atomic.Uint64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v := d.PopTop(); v != nil {
					if taken[*v].Add(1) != 1 {
						t.Errorf("item %d taken twice", *v)
						return
					}
					stolen.Add(1)
				}
				select {
				case <-stop:
					// Drain what's left so the count balances.
					for {
						v := d.PopTop()
						if v == nil {
							return
						}
						if taken[*v].Add(1) != 1 {
							t.Errorf("item %d taken twice", *v)
							return
						}
						stolen.Add(1)
					}
				default:
				}
			}
		}()
	}

	// Owner: pushes in bursts, pops some back, keeping the deque short so
	// the last-item race is hit constantly.
	next := uint64(0)
	vals := make([]uint64, items)
	for next < items {
		burst := 1 + int(next%3)
		for b := 0; b < burst && next < items; b++ {
			vals[next] = next
			for !d.PushBottom(&vals[next]) {
				runtime.Gosched()
			}
			next++
		}
		if v := d.PopBottom(); v != nil {
			if taken[*v].Add(1) != 1 {
				t.Fatalf("item %d taken twice (owner)", *v)
			}
			popped.Add(1)
		}
	}
	close(stop)
	wg.Wait()
	// Owner drains any remainder after thieves exited.
	for {
		v := d.PopBottom()
		if v == nil {
			break
		}
		if taken[*v].Add(1) != 1 {
			t.Fatalf("item %d taken twice (final drain)", *v)
		}
		popped.Add(1)
	}
	if got := stolen.Load() + popped.Load(); got != items {
		t.Fatalf("items accounted = %d, want %d (stolen %d, popped %d)",
			got, items, stolen.Load(), popped.Load())
	}
	for i := range taken {
		if taken[i].Load() != 1 {
			t.Fatalf("item %d taken %d times", i, taken[i].Load())
		}
	}
}

func TestABPOwnerThiefRace(t *testing.T) {
	for _, thieves := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("thieves=%d", thieves), func(t *testing.T) {
			testOwnerThiefRace(t, func() Dequer[uint64] { return New[uint64]() }, thieves)
		})
	}
}

func TestMutexOwnerThiefRace(t *testing.T) {
	testOwnerThiefRace(t, func() Dequer[uint64] { return NewMutex[uint64]() }, 4)
}

// TestStructuralOrderUnderSteals checks the FIFO property of steals: thieves
// observe items in push order (top-to-bottom order is oldest-first), a
// consequence of linearizability of non-NIL popTop invocations when the
// owner only pushes.
func TestStructuralOrderUnderSteals(t *testing.T) {
	d := NewWithCapacity[uint64](1 << 12)
	const items = 1 << 12
	vals := make([]uint64, items)
	for i := range vals {
		vals[i] = uint64(i)
		if !d.PushBottom(&vals[i]) {
			t.Fatal("push failed")
		}
	}
	const thieves = 4
	var wg sync.WaitGroup
	results := make([][]uint64, thieves)
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				v := d.PopTop()
				if v == nil {
					if d.Len() == 0 {
						return
					}
					continue
				}
				results[i] = append(results[i], *v)
			}
		}(i)
	}
	wg.Wait()
	seen := make([]bool, items)
	total := 0
	for i := 0; i < thieves; i++ {
		// Each thief individually observes strictly increasing values.
		for j := 1; j < len(results[i]); j++ {
			if results[i][j] <= results[i][j-1] {
				t.Fatalf("thief %d saw out-of-order steals: %d then %d", i, results[i][j-1], results[i][j])
			}
		}
		for _, v := range results[i] {
			if seen[v] {
				t.Fatalf("item %d stolen twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != items {
		t.Fatalf("stole %d items, want %d", total, items)
	}
}

// Property test: any random interleaving of owner ops against a model, with
// occasional full drains, matches the ideal semantics (owner-only usage is
// strictly sequential, so the ideal semantics must hold exactly).
func TestQuickOwnerOnlyMatchesModel(t *testing.T) {
	prop := func(ops []byte) bool {
		d := NewWithCapacity[int](64)
		var model []*int
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				v := intp(next)
				next++
				if d.PushBottom(v) {
					model = append(model, v)
				} else if len(model) < 64 {
					return false
				}
			case 2:
				got := d.PopBottom()
				var want *int
				if len(model) > 0 {
					want = model[len(model)-1]
					model = model[:len(model)-1]
				}
				if got != want {
					return false
				}
			case 3:
				got := d.PopTop()
				var want *int
				if len(model) > 0 {
					want = model[0]
					model = model[1:]
				}
				if got != want {
					return false
				}
			}
		}
		return d.Len() == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The tag must change whenever the owner resets top, so that stale thief
// CASes fail (the mechanism behind the paper's tag field).
func TestTagBumpsOnReset(t *testing.T) {
	d := NewWithCapacity[int](8)
	tag0, _ := unpackAge(d.age.Load())
	d.PushBottom(intp(1))
	d.PopBottom() // crosses empty: must bump tag
	tag1, top1 := unpackAge(d.age.Load())
	if tag1 == tag0 {
		t.Fatalf("tag not bumped on empty reset: %d -> %d", tag0, tag1)
	}
	if top1 != 0 {
		t.Fatalf("top not reset: %d", top1)
	}
	// popTop path does not bump the tag.
	d.PushBottom(intp(2))
	d.PushBottom(intp(3))
	d.PopTop()
	tag2, top2 := unpackAge(d.age.Load())
	if tag2 != tag1 || top2 != 1 {
		t.Fatalf("after popTop age = (%d,%d), want (%d,1)", tag2, top2, tag1)
	}
}
