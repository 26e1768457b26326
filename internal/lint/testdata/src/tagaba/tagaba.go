// Package tagaba is the analysistest fixture for the tagaba analyzer:
// every CAS that resets top to 0 must install a tag that is (1) an
// increment and (2) built from a freshly loaded value — Figure 5's ABA
// guard.
package tagaba

import "sync/atomic"

const tagShift = 32

const tagMask = (uint64(1) << tagShift) - 1

func packAge(tag, top uint64) uint64 { return tag<<tagShift | top }

func unpackAge(a uint64) (tag, top uint64) { return a >> tagShift, a & tagMask }

type deque struct {
	age atomic.Uint64
}

// goodReset mirrors Figure 5 popBottom: load, unpack, increment, reset.
func goodReset(d *deque) {
	oldAge := d.age.Load()
	oldTag, _ := unpackAge(oldAge)
	newAge := packAge(oldTag+1, 0) // accepted: incremented, freshly unpacked
	if d.age.CompareAndSwap(oldAge, newAge) {
		return
	}
}

// goodMasked wraps the incremented tag, as a finite-width tag must.
func goodMasked(d *deque) {
	oldAge := d.age.Load()
	oldTag, _ := unpackAge(oldAge)
	if d.age.CompareAndSwap(oldAge, packAge((oldTag+1)&tagMask, 0)) { // accepted: masked increment
		return
	}
}

// goodAdvance is the popTop shape: top advances rather than resets, so no
// tag increment is required.
func goodAdvance(d *deque) {
	oldAge := d.age.Load()
	oldTag, oldTop := unpackAge(oldAge)
	if d.age.CompareAndSwap(oldAge, packAge(oldTag, oldTop+1)) { // accepted: not a reset
		return
	}
}

// noIncrement resets top but reuses the old tag verbatim: a thief that
// loaded the age word before the reset can still CAS successfully.
func noIncrement(d *deque) {
	oldAge := d.age.Load()
	oldTag, _ := unpackAge(oldAge)
	newAge := packAge(oldTag, 0) // want `resets top to 0 without incrementing the tag`
	if d.age.CompareAndSwap(oldAge, newAge) {
		return
	}
}

// staleParam builds the reset from a caller-supplied tag.
func staleParam(d *deque, oldTag uint64) {
	oldAge := d.age.Load()
	newAge := packAge(oldTag+1, 0) // want `is a parameter, not freshly loaded`
	if d.age.CompareAndSwap(oldAge, newAge) {
		return
	}
}

// constTag hardcodes the tag base.
func constTag(d *deque) {
	oldAge := d.age.Load()
	if d.age.CompareAndSwap(oldAge, packAge(7+1, 0)) { // want `builds its tag from the constant`
		return
	}
}

// staleLocal derives the tag from a local that was never loaded.
func staleLocal(d *deque) {
	tag := uint64(7)
	oldAge := d.age.Load()
	newAge := packAge(tag+1, 0) // want `not derived from a Load or unpack on every path`
	if d.age.CompareAndSwap(oldAge, newAge) {
		return
	}
}

type age struct {
	tag uint32
	top uint32
}

// structReset exercises the composite-literal build form (the simulator's
// Age struct shape): incremented from a freshly loaded snapshot.
func structReset(cur *atomic.Pointer[age]) {
	old := cur.Load()
	next := &age{tag: old.tag + 1, top: 0} // accepted: incremented from a fresh load
	if cur.CompareAndSwap(old, next) {
		return
	}
}

// structNoIncrement is the same shape without the increment.
func structNoIncrement(cur *atomic.Pointer[age]) {
	old := cur.Load()
	next := &age{tag: old.tag, top: 0} // want `resets top to 0 without incrementing the tag`
	if cur.CompareAndSwap(old, next) {
		return
	}
}

// suppressed is a boot-time reset justified with an ignore directive.
func suppressed(d *deque, bootTag uint64) {
	oldAge := d.age.Load()
	//abp:ignore cas boot-time reset before any thief can exist
	newAge := packAge(bootTag+1, 0) // accepted: justified ignore
	if d.age.CompareAndSwap(oldAge, newAge) {
		return
	}
}

var (
	_ = goodReset
	_ = goodMasked
	_ = goodAdvance
	_ = noIncrement
	_ = staleParam
	_ = constTag
	_ = staleLocal
	_ = structReset
	_ = structNoIncrement
	_ = suppressed
)
