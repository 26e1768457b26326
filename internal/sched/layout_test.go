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

// TestWorkerLayoutPins asserts the status word — which every producer's
// signalWork scans, parkers CAS, and Resize arbitrates retirement on — has
// a cache line to itself, clear of the wiring every thief reads and of the
// block only the owner writes, and that the owner's block starts on a line
// boundary with the words a popped-back fork writes — the free-list
// depths, the due counts and the fold count — on its first line. The list
// of emptied scopes, which only a steal moves, is in the owner block off
// that line, and the join token, which completers on other workers read,
// is in the wiring.
func TestWorkerLayoutPins(t *testing.T) {
	var w Worker
	status := unsafe.Offsetof(w.status)
	scope := unsafe.Offsetof(w.scope)
	others := map[string]uintptr{
		"pool": unsafe.Offsetof(w.pool), "dq": unsafe.Offsetof(w.dq), "parkCh": unsafe.Offsetof(w.parkCh),
		"joinCh": unsafe.Offsetof(w.joinCh),
		"scope":  scope, "nFutures": unsafe.Offsetof(w.nFutures), "nRanges": unsafe.Offsetof(w.nRanges),
		"nGroupTasks": unsafe.Offsetof(w.nGroupTasks), "spawnsDue": unsafe.Offsetof(w.spawnsDue), "runsDue": unsafe.Offsetof(w.runsDue),
		"folded": unsafe.Offsetof(w.folded), "futures": unsafe.Offsetof(w.futures), "groupTasksEnd": unsafe.Offsetof(w.groupTasks) + unsafe.Sizeof(w.groupTasks) - 1,
		"nScopes": unsafe.Offsetof(w.nScopes), "scopes": unsafe.Offsetof(w.scopes),
		"scopesEnd": unsafe.Offsetof(w.scopes) + unsafe.Sizeof(w.scopes) - 1,
		"progress":  unsafe.Offsetof(w.progress), "tasksRun": unsafe.Offsetof(w.tasksRun),
		"wakes": unsafe.Offsetof(w.wakes),
	}
	for name, off := range others {
		if layoutLine(off) == layoutLine(status) {
			t.Errorf("status (offset %d) shares a cache line with %s (offset %d)", status, name, off)
		}
	}
	// Every thief and every deque scan reads dq, so what the owner writes
	// per task — scope and folded twice in exec, a count per fork and per
	// call, a depth and a slot per fork and per join — is on none of the
	// lines other workers read.
	firstLine := []string{"scope", "nFutures", "nRanges", "nGroupTasks", "spawnsDue", "runsDue", "folded"}
	for _, shared := range []string{"pool", "dq", "parkCh", "joinCh"} {
		for _, own := range append(firstLine, "futures", "groupTasksEnd", "nScopes", "scopesEnd", "wakes") {
			if layoutLine(others[own]) == layoutLine(others[shared]) {
				t.Errorf("owner-written %s (offset %d) is on the line of %s (offset %d), which other workers read",
					own, others[own], shared, others[shared])
			}
		}
	}
	if scope%atomicx.CacheLineSize != 0 {
		t.Errorf("the owner-written block starts at offset %d, not on a line boundary", scope)
	}
	for _, own := range firstLine {
		if layoutLine(others[own]) != layoutLine(scope) {
			t.Errorf("%s (offset %d) leaves the owner block's first line (scope at %d)", own, others[own], scope)
		}
	}
	for _, own := range []string{"nScopes", "scopes", "scopesEnd"} {
		if line := layoutLine(others[own]); line == layoutLine(scope) || line > layoutLine(status) {
			t.Errorf("%s (offset %d) is not in the owner block off its first line (scope at %d, status at %d)", own, others[own], scope, status)
		}
	}
	if layoutLine(others["joinCh"]) <= layoutLine(status) {
		t.Errorf("joinCh (offset %d) is not in the wiring after status (offset %d)", others["joinCh"], status)
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
// line-aligned), which leaves state, read by every worker for every task
// of the submission, on another line — and the registry links, which the
// register and unregister of the submissions around this one write, and
// the hold count on a third. The completion word is the Handle's, apart
// from the record.
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
	state := unsafe.Offsetof(r.state)
	offs := map[string]uintptr{
		"state": state, "root": unsafe.Offsetof(r.root), "holds": unsafe.Offsetof(r.holds),
		"prev": unsafe.Offsetof(r.prev), "next": unsafe.Offsetof(r.next),
	}
	for name, off := range offs {
		if layoutLine(off) == 0 {
			t.Errorf("%s (offset %d) shares the root refs line", name, off)
		}
	}
	for _, name := range []string{"holds", "prev", "next"} {
		if layoutLine(offs[name]) == layoutLine(state) {
			t.Errorf("state (offset %d) shares a cache line with %s (offset %d)", state, name, offs[name])
		}
	}
}
