// Package casloop is the analysistest fixture for the casloop analyzer:
// CAS retry loops must reload their expected value each attempt.
package casloop

import "sync/atomic"

// staleMethod retries with a value loaded once, outside the loop.
func staleMethod(v *atomic.Int64) {
	old := v.Load()
	for {
		if v.CompareAndSwap(old, old+1) { // want `never reloads expected value "old"`
			return
		}
	}
}

// staleInit loads in the loop init, which runs only once — still stale.
func staleInit(v *atomic.Int64) {
	for old := v.Load(); !v.CompareAndSwap(old, old+1); { // want `never reloads expected value "old"`
	}
}

// staleFunc is the same bug through the function-style API.
func staleFunc(p *int64) {
	old := atomic.LoadInt64(p)
	for !atomic.CompareAndSwapInt64(p, old, old+1) { // want `never reloads expected value "old"`
	}
}

// fresh reloads per attempt: accepted.
func fresh(v *atomic.Int64) {
	for {
		old := v.Load()
		if v.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// freshPost reloads in the post statement, which runs every iteration.
func freshPost(v *atomic.Int64) {
	for old := v.Load(); !v.CompareAndSwap(old, old+1); old = v.Load() {
	}
}

// spin expects a constant; constants cannot go stale.
func spin(flag *atomic.Int32) {
	for !flag.CompareAndSwap(0, 1) {
	}
}

// inline reloads by construction.
func inline(v *atomic.Int64) {
	for !v.CompareAndSwap(v.Load(), 0) {
	}
}

// suppressed shows a justified //abp:ignore: the finding is real but
// explicitly waived, so no diagnostic surfaces.
func suppressed(v *atomic.Int64) bool {
	old := v.Load()
	for i := 0; i < 1; i++ {
		//abp:ignore cas single-attempt loop: the bound makes staleness harmless
		if v.CompareAndSwap(old, old+1) {
			return true
		}
	}
	return false
}

// bareIgnore lacks a justification, so the directive is inert.
func bareIgnore(v *atomic.Int64) bool {
	old := v.Load()
	for i := 0; i < 1; i++ {
		//abp:ignore cas
		if v.CompareAndSwap(old, old+1) { // want `never reloads expected value "old"`
			return true
		}
	}
	return false
}

var _ = staleMethod
var _ = staleInit
var _ = staleFunc
var _ = fresh
var _ = freshPost
var _ = spin
var _ = inline
var _ = suppressed
var _ = bareIgnore
