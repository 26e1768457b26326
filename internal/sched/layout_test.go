package sched

import (
	"testing"
	"unsafe"

	"worksteal/internal/atomicx"
)

// The layout pins of the scheduler's hot structs (internal/deque's
// layout_test.go has the deques'): the declared line isolation is
// asserted with unsafe.Offsetof on the host architecture. They are the
// layout's only guard (EXPERIMENTS.md E40).

func layoutLine(off uintptr) uintptr { return off / atomicx.CacheLineSize }

// TestInjectorLayoutPins asserts the producer and consumer positions of
// the MPMC injector live on distinct cache lines, so a submission burst
// and a draining worker do not false-share, and that a ring cell is
// exactly one line, so a producer publishing one cell and a consumer
// releasing its neighbour do not either (E16 measured the packed cells
// ~35% slower on contended submit).
func TestInjectorLayoutPins(t *testing.T) {
	var q injector
	enq := unsafe.Offsetof(q.enq)
	deq := unsafe.Offsetof(q.deq)
	if layoutLine(enq) == layoutLine(deq) {
		t.Errorf("enq (offset %d) and deq (offset %d) share a cache line", enq, deq)
	}
	if sz := unsafe.Sizeof(injectorCell{}); sz != atomicx.CacheLineSize {
		t.Errorf("injectorCell is %d bytes, want exactly one cache line", sz)
	}
}

// TestGraphRunLayoutPins asserts a worker's executed-node count is exactly
// one line, so the per-worker counters RunGraph bumps at every node do not
// share one.
func TestGraphRunLayoutPins(t *testing.T) {
	if sz := unsafe.Sizeof(nodeCount{}); sz != atomicx.CacheLineSize {
		t.Errorf("nodeCount is %d bytes, want exactly one cache line", sz)
	}
}

// TestWorkerLayoutPins asserts the status word — which every producer's
// signalWork scans, parkers CAS, and Resize arbitrates retirement on — has
// a cache line to itself, clear of the wiring every thief reads and of the
// block only the owner writes, and that the owner's block starts on a line
// boundary with the words a popped-back fork writes — the free-list
// depths, the due counts, the fold count and the private region's indices
// — on its first line. The region's slots are in the owner block, the list
// of emptied scopes, which only a steal moves, in that block off its first
// line. The sleep — its number, which the worker's sleeps write, and its
// token channel, which every waker reads with the number — and wantWork,
// which thieves write and the owner polls at every fork, each have their
// lines to themselves.
func TestWorkerLayoutPins(t *testing.T) {
	var w Worker
	status := unsafe.Offsetof(w.status)
	scope := unsafe.Offsetof(w.scope)
	others := map[string]uintptr{
		"pool": unsafe.Offsetof(w.pool), "dq": unsafe.Offsetof(w.dq), "sleep": unsafe.Offsetof(w.sleep),
		"sleepEnd": unsafe.Offsetof(w.sleep) + unsafe.Sizeof(w.sleep) - 1,
		"scope":    scope, "nFutures": unsafe.Offsetof(w.nFutures), "nRanges": unsafe.Offsetof(w.nRanges),
		"nGroupTasks": unsafe.Offsetof(w.nGroupTasks), "nGroupRecs": unsafe.Offsetof(w.nGroupRecs),
		"spawnsDue": unsafe.Offsetof(w.spawnsDue), "runsDue": unsafe.Offsetof(w.runsDue),
		"folded": unsafe.Offsetof(w.folded), "futures": unsafe.Offsetof(w.futures), "groupRecsEnd": unsafe.Offsetof(w.groupRecs) + unsafe.Sizeof(w.groupRecs) - 1,
		"nScopes": unsafe.Offsetof(w.nScopes), "scopes": unsafe.Offsetof(w.scopes),
		"scopesEnd": unsafe.Offsetof(w.scopes) + unsafe.Sizeof(w.scopes) - 1,
		"tasksRun":  unsafe.Offsetof(w.tasksRun), "wakes": unsafe.Offsetof(w.wakes),
		"lazyHead": unsafe.Offsetof(w.lazyHead), "lazyTail": unsafe.Offsetof(w.lazyTail),
		"lazy": unsafe.Offsetof(w.lazy), "lazyEnd": unsafe.Offsetof(w.lazy) + unsafe.Sizeof(w.lazy) - 1,
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
	firstLine := []string{"scope", "nFutures", "nRanges", "nGroupTasks", "nGroupRecs", "spawnsDue", "runsDue", "folded", "lazyHead", "lazyTail"}
	for _, shared := range []string{"pool", "dq", "sleep", "sleepEnd"} {
		for _, own := range append(firstLine, "futures", "groupRecsEnd", "nScopes", "scopesEnd", "wakes", "lazy", "lazyEnd") {
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
	for _, own := range []string{"lazy", "lazyEnd"} {
		if layoutLine(others[own]) >= layoutLine(status) {
			t.Errorf("%s (offset %d) is not in the owner block (status at %d)", own, others[own], status)
		}
	}
	want := unsafe.Offsetof(w.wantWork)
	others["status"] = status
	for name, off := range others {
		if layoutLine(off) == layoutLine(want) {
			t.Errorf("wantWork (offset %d) shares a cache line with %s (offset %d)", want, name, off)
		}
	}
	for name, off := range others {
		if line := layoutLine(off); name != "sleep" && name != "sleepEnd" && (line == layoutLine(others["sleep"]) || line == layoutLine(others["sleepEnd"])) {
			t.Errorf("%s (offset %d) shares a cache line with the sleep (offsets %d to %d)", name, off, others["sleep"], others["sleepEnd"])
		}
	}
}

// TestPoolLayoutPins asserts that the frequently written word — idle,
// the park/signal pair's — shares no line with a word every worker reads
// per iteration — phase, fleet — and that all three are clear of each
// other and of the shared counters. A signal writes no word of the pool:
// its scan starts at a random position (signalWork).
func TestPoolLayoutPins(t *testing.T) {
	var p Pool
	offs := map[string]uintptr{
		"phase":   unsafe.Offsetof(p.phase),
		"idle":    unsafe.Offsetof(p.idle),
		"fleet":   unsafe.Offsetof(p.fleet),
		"dropped": unsafe.Offsetof(p.dropped),
	}
	for _, hot := range []string{"phase", "idle", "fleet"} {
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
// of the submission, on another line — end, the claim every finish of the
// submission contends on, on a third, and the registry links, which the
// register and unregister of the submissions around this one write, the
// hold count and the submitter's Handle chunk on a fourth, the last. The
// completion word is the Handle's, apart from the record.
func TestRunLayoutPins(t *testing.T) {
	var r run
	if sz := unsafe.Sizeof(r.scope); sz != atomicx.CacheLineSize {
		t.Errorf("scope is %d bytes, want exactly one cache line", sz)
	}
	if off := unsafe.Offsetof(r.scope) + unsafe.Offsetof(r.scope.refs); off != 0 {
		t.Errorf("root refs at offset %d, want 0", off)
	}
	if sz := unsafe.Sizeof(r); sz != 4*atomicx.CacheLineSize {
		t.Errorf("run is %d bytes, want four cache lines", sz)
	}
	state := unsafe.Offsetof(r.state)
	offs := map[string]uintptr{
		"state": state, "end": unsafe.Offsetof(r.end), "root": unsafe.Offsetof(r.root), "holds": unsafe.Offsetof(r.holds),
		"prev": unsafe.Offsetof(r.prev), "next": unsafe.Offsetof(r.next), "handles": unsafe.Offsetof(r.handles),
	}
	for name, off := range offs {
		if layoutLine(off) == 0 {
			t.Errorf("%s (offset %d) shares the root refs line", name, off)
		}
	}
	for i, name := range []string{"state", "end", "holds", "prev", "next", "handles"} {
		for _, other := range []string{"state", "end", "holds"}[:min(i, 2)] {
			if layoutLine(offs[name]) == layoutLine(offs[other]) {
				t.Errorf("%s (offset %d) shares a cache line with %s (offset %d)", other, offs[other], name, offs[name])
			}
		}
	}
}
