package deque

import (
	"testing"
	"unsafe"

	"worksteal/internal/atomicx"
)

// The layout pin tests assert the deques' line isolation with
// unsafe.Offsetof on the host architecture: they are the layout's only
// guard (EXPERIMENTS.md E40).

func lineOf(off uintptr) uintptr { return off / atomicx.CacheLineSize }

func TestCacheLinePadPins(t *testing.T) {
	if atomicx.CacheLineSize != 64 {
		t.Fatalf("CacheLineSize = %d, want 64 (the coherence granule the layout discipline assumes)", atomicx.CacheLineSize)
	}
	if s := unsafe.Sizeof(atomicx.CacheLinePad{}); s != atomicx.CacheLineSize {
		t.Fatalf("Sizeof(CacheLinePad) = %d, want %d", s, atomicx.CacheLineSize)
	}
}

// TestDequeLayoutPins asserts the ABP deque's declared isolation: the
// thieves' CAS target (age), the owner's store target (bot), and the
// remaining cold words each on their own cache line (paper §3.2's two
// contending parties must not invalidate each other's lines).
func TestDequeLayoutPins(t *testing.T) {
	var d Deque[int]
	age := unsafe.Offsetof(d.age)
	bot := unsafe.Offsetof(d.bot)
	deq := unsafe.Offsetof(d.deq)
	if lineOf(age) == lineOf(bot) {
		t.Errorf("age (offset %d) and bot (offset %d) share a cache line", age, bot)
	}
	if lineOf(bot) == lineOf(deq) || lineOf(age) == lineOf(deq) {
		t.Errorf("deq header (offset %d) shares a line with age (%d) or bot (%d)", deq, age, bot)
	}
}

// TestChaseLevLayoutPins asserts the Chase-Lev isolation PR 8 added: the
// thief-CAS'd top, the owner-stored bottom, and the thief-read ring
// pointer pairwise on distinct lines.
func TestChaseLevLayoutPins(t *testing.T) {
	var d ChaseLev[int]
	top := unsafe.Offsetof(d.top)
	bottom := unsafe.Offsetof(d.bottom)
	array := unsafe.Offsetof(d.array)
	if lineOf(top) == lineOf(bottom) {
		t.Errorf("top (offset %d) and bottom (offset %d) share a cache line", top, bottom)
	}
	if lineOf(bottom) == lineOf(array) {
		t.Errorf("bottom (offset %d) and array (offset %d) share a cache line", bottom, array)
	}
	if lineOf(top) == lineOf(array) {
		t.Errorf("top (offset %d) and array (offset %d) share a cache line", top, array)
	}
}
