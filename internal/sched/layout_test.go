package sched

import (
	"testing"
	"unsafe"

	"worksteal/internal/atomicx"
)

// Dynamic mirror of the abplayout analyzer for the scheduler's hot
// structs (see internal/deque/layout_test.go for the deque halves): the
// declared line isolation is asserted with unsafe.Offsetof on the host
// architecture.

func layoutLine(off uintptr) uintptr { return off / atomicx.CacheLineSize }

// TestInjectorLayoutPins asserts the producer and consumer positions of
// the MPMC injector live on distinct cache lines, so a submission burst
// and a draining worker do not false-share.
func TestInjectorLayoutPins(t *testing.T) {
	var q injector
	enq := unsafe.Offsetof(q.enq)
	deq := unsafe.Offsetof(q.deq)
	if layoutLine(enq) == layoutLine(deq) {
		t.Errorf("enq (offset %d) and deq (offset %d) share a cache line", enq, deq)
	}
}

// TestWorkerLayoutPins asserts the parked flag — the word every
// producer's signalWork scans — is isolated from both the cold
// per-worker wiring before it and the owner-hot progress/stat counters
// after it, and that the owner's plain per-task state is clear of
// everything other workers read.
func TestWorkerLayoutPins(t *testing.T) {
	var w Worker
	parked := unsafe.Offsetof(w.parked)
	parkCh := unsafe.Offsetof(w.parkCh)
	scope := unsafe.Offsetof(w.scope)
	progress := unsafe.Offsetof(w.progress)
	tasksRun := unsafe.Offsetof(w.tasksRun)
	if layoutLine(parked) == layoutLine(parkCh) || layoutLine(parked) == layoutLine(scope) {
		t.Errorf("parked (offset %d) shares a line with the worker wiring (parkCh %d, scope %d)", parked, parkCh, scope)
	}
	if layoutLine(parked) == layoutLine(progress) || layoutLine(parked) == layoutLine(tasksRun) {
		t.Errorf("parked (offset %d) shares a line with the owner counters (progress %d, tasksRun %d)", parked, progress, tasksRun)
	}
	// state is the fleet-membership word Resize CASes against the worker's
	// own retire CAS — an arbitration word like parked, and like parked it
	// must not share a line with the wake flag or the owner counters.
	state := unsafe.Offsetof(w.state)
	if layoutLine(state) == layoutLine(parked) || layoutLine(state) == layoutLine(progress) {
		t.Errorf("state (offset %d) shares a line with parked (%d) or progress (%d)", state, parked, progress)
	}
	// Every thief and every anyVisibleWork scan reads dq, so what the owner
	// writes per task — scope twice in exec, a free-list head per fork and
	// per join — is on none of the lines other workers read; and the two
	// heads, the interface's two words included, lie on one line.
	futures := unsafe.Offsetof(w.freeFutures)
	futuresEnd := futures + unsafe.Sizeof(w.freeFutures) - 1
	groupTasks := unsafe.Offsetof(w.freeGroupTasks)
	for _, shared := range []uintptr{unsafe.Offsetof(w.dq), parkCh, parked, state} {
		for _, own := range []uintptr{scope, futures, groupTasks, unsafe.Offsetof(w.napTimer)} {
			if layoutLine(own) == layoutLine(shared) {
				t.Errorf("owner-written offset %d is on the line of offset %d, which other workers read", own, shared)
			}
		}
	}
	if layoutLine(futures) != layoutLine(futuresEnd) || layoutLine(futures) != layoutLine(groupTasks) {
		t.Errorf("the free-list heads span lines: freeFutures %d..%d, freeGroupTasks %d", futures, futuresEnd, groupTasks)
	}
}

// TestPoolLayoutPins asserts that no frequently written word — wakeRR's
// per-signal Add, idle's park/signal pair — shares a line with a word
// every worker reads per iteration — phase, fleet — and that all four are
// clear of each other and of the shared counters.
func TestPoolLayoutPins(t *testing.T) {
	var p Pool
	offs := map[string]uintptr{
		"phase":   unsafe.Offsetof(p.phase),
		"wakeRR":  unsafe.Offsetof(p.wakeRR),
		"idle":    unsafe.Offsetof(p.idle),
		"fleet":   unsafe.Offsetof(p.fleet),
		"dropped": unsafe.Offsetof(p.dropped),
	}
	for _, hot := range []string{"phase", "wakeRR", "idle", "fleet"} {
		for name, off := range offs {
			if name == hot {
				continue
			}
			if layoutLine(offs[hot]) == layoutLine(off) {
				t.Errorf("%s (offset %d) shares a cache line with %s (offset %d)", hot, offs[hot], name, off)
			}
		}
	}
}

// TestRunLayoutPins asserts the root scope's refs — written at every spawn
// and task end of the worker running in the root scope — has a cache line
// to itself: scope is exactly one line, it leads the run record, and the
// record is a whole number of lines (so the allocator keeps it
// line-aligned), which leaves state and abort, read by every worker for
// every task of the submission, on other lines.
func TestRunLayoutPins(t *testing.T) {
	var r run
	if sz := unsafe.Sizeof(r.scope); sz != atomicx.CacheLineSize {
		t.Errorf("scope is %d bytes, want exactly one cache line", sz)
	}
	if off := unsafe.Offsetof(r.scope) + unsafe.Offsetof(r.scope.refs); off != 0 {
		t.Errorf("root refs at offset %d, want 0", off)
	}
	if sz := unsafe.Sizeof(r); sz%atomicx.CacheLineSize != 0 {
		t.Errorf("run is %d bytes, not a whole number of cache lines", sz)
	}
	for name, off := range map[string]uintptr{
		"state":    unsafe.Offsetof(r.state),
		"abort":    unsafe.Offsetof(r.abort),
		"finished": unsafe.Offsetof(r.finished),
		"root":     unsafe.Offsetof(r.root),
	} {
		if layoutLine(off) == 0 {
			t.Errorf("%s (offset %d) shares the root refs line", name, off)
		}
	}
}
