package fault

import (
	"testing"
)

// BenchmarkPointDisabled is the number that justifies compiling failpoints
// into the deque hot paths: the disabled fast path is one atomic load.
func BenchmarkPointDisabled(b *testing.B) {
	Reset()
	for i := 0; i < b.N; i++ {
		Point("bench.disabled")
	}
}

// BenchmarkPointArmedOtherPoint measures the slow path taken when some
// unrelated point is armed (registry lookup miss under the lock).
func BenchmarkPointArmedOtherPoint(b *testing.B) {
	Reset()
	Enable("bench.other", Rule{Action: ActionYield, Times: 0, EveryNth: 1 << 30})
	defer Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Point("bench.disabled")
	}
}

// TestDisabledPointOverheadGate is the CI gate for the zero-overhead-when-
// disabled claim (DESIGN.md §9): the disabled fast path must stay within
// the noise of a deque push+pop pair (~15 ns; the benchmark's per-layer
// deque.pushpop_ns row, benchmark/ with --trace 1). An atomic load plus a predicted branch is ~1-2ns on any
// supported hardware; the bound
// is set an order of magnitude above that so the gate catches structural
// regressions (a map lookup, an allocation, a lock on the fast path)
// without flaking on loaded CI runners. Skipped under -race, whose
// instrumentation taxes every atomic by design.
func TestDisabledPointOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates atomic loads; gate runs in the no-race chaos job")
	}
	Reset()
	const boundNs = 25.0
	// A fixed inner batch keeps the measurement meaningful even when the
	// test binary runs with -benchtime=1x (testing.Benchmark honors the
	// external flag, and a single timed call is all timer overhead).
	const batch = 1 << 20
	var best float64
	for attempt := 0; attempt < 3; attempt++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					Point("gate.disabled")
				}
			}
		})
		ns := float64(res.T.Nanoseconds()) / float64(res.N) / batch
		if attempt == 0 || ns < best {
			best = ns
		}
		if best <= boundNs {
			return
		}
	}
	t.Fatalf("disabled fault.Point costs %.1fns/op (bound %.0fns): the fast path regressed", best, boundNs)
}
