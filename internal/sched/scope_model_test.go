package sched

import (
	"fmt"
	"testing"
)

// This file model-checks the termination accounting of scope.go by
// exhaustive interleaving enumeration (the explorer of model_test.go): a
// few workers execute a small task tree over abstract counters, every
// atomic operation of the real protocol — the spawn's Add, the push that
// makes the task stealable, the thief's load in split, each decrement of a
// release chain — is one step of one worker, and every interleaving of
// those steps is explored. The deque operations themselves are single steps
// here (their own interleavings are internal/sim's subject). Checked on
// every path:
//
//   - complete fires at most once, and only when every task has ended;
//   - at quiescence it has fired exactly once and every scope is at zero;
//   - no counter ever goes negative.
//
// Any worker may steal from any other, so with three workers the tree is
// split, split again under the split, and stolen back by the worker it was
// first stolen from.
//
// A task may also pop back the child it pushed last, if no thief has taken
// it, and run it as a call (Future.call) — which may pop back one of its
// own — and a call ends with no decrement at all: the task it was called
// under releases it, with itself, in one step of 1+k (exec's folded count).
//
// A child scope is recycled: the release that empties it lists it on the
// releasing worker's free list, and a split on that worker takes it from
// there. Checked on top: no step touches a scope while it is listed — not
// a spawn's Add, a split's load, a release's decrement, nor the gate's
// load through a popped task's scope — and at quiescence every child scope
// is listed, once.

const (
	mMaxTasks   = 8
	mMaxScopes  = 8
	mMaxWorkers = 3
	mMaxFrames  = 3 // the task exec runs, a call, and a call inside the call
)

// Worker program counters.
const (
	mIdle      int8 = iota // looking for a task
	mSplit                 // holds a stolen task, has not yet loaded its scope's refs
	mBody                  // running the task: spawning its children, then ending it
	mReleasing             // past the first decrement of a release chain that reached zero
)

type mTask struct {
	scope int8 // the scope the task carries
	depth int8 // its level in the tree: fan[depth] is how many children it spawns
	ended bool
}

// mFrame is a task running on a worker: the one exec runs, or a call.
type mFrame struct {
	task    int8
	spawned int8 // its children spawned so far
	last    int8 // its child pushed last, which it may pop back; -1 if none
}

type mWorker struct {
	pc     int8
	scope  int8 // the scope the task runs in (mBody); the one being released (mReleasing)
	frames [mMaxFrames]mFrame
	nframe int8 // frames[0] holds the stolen task (mSplit) or the task exec runs (mBody)
	folded int8 // calls ended since the exec began, released with its task
	unpub  int8 // a child counted by the Add but not yet pushed; -1 if none
	deque  [mMaxTasks]int8
	dlen   int8
	free   [mMaxScopes]int8 // the scopes this worker emptied, a stack
	nfree  int8
}

// mState is the whole model.
type mState struct {
	refs      [mMaxScopes]int8
	parent    [mMaxScopes]int8
	nscopes   int8
	tasks     [mMaxTasks]mTask
	ntasks    int8
	w         [mMaxWorkers]mWorker
	completes int8
	listed    [mMaxScopes]bool // on some worker's free list
}

type scopeModel struct {
	workers int
	fan     []int8 // children spawned by a task at each depth
	// moveCount is the broken variant for the negative control: the thief
	// moves the stolen task's count into the child scope at once instead of
	// leaving it in the parent to stand for the child.
	moveCount bool
	// keepFold is another: an exec does not reset the fold count, so the
	// calls an earlier task folded are released in the next task's scope.
	keepFold bool
	// recycleEarly is another: a release lists a child scope on its first
	// decrement, not on the one that reaches zero.
	recycleEarly bool
	// What the search came across, so the test can tell it covered both
	// arms of split, a split that reuses a listed scope, and calls nested
	// in calls.
	splits, takeovers, reuses, nestedCalls int
}

// touch is a step's access to scope c: none may come while c is listed.
func touch(s *mState, c int8) error {
	if s.listed[c] {
		return fmt.Errorf("a step touches scope %d on a free list", c)
	}
	return nil
}

func (m *scopeModel) initial() mState {
	var s mState
	s.nscopes, s.refs[0], s.parent[0] = 1, 1, -1 // the root scope counts the root task
	s.ntasks = 1                                 // task 0: the root, on worker 0's deque
	for i := range s.w {
		s.w[i].unpub = -1
	}
	s.w[0].deque[0], s.w[0].dlen = 0, 1
	return s
}

// successors returns the states worker i can move s to in one step: more
// than one only when it is idle with an empty deque and several victims
// have work, or when it may pop a child back. A violation of a per-step
// property comes back as err.
func (m *scopeModel) successors(s mState, i int) (next []mState, err error) {
	w := &s.w[i]
	switch w.pc {
	case mIdle:
		if w.dlen > 0 { // PopBottom, and execOrDrop's gate loads through the task's scope
			w.dlen--
			m.begin(w, w.deque[w.dlen])
			w.pc, w.scope = mBody, s.tasks[w.frames[0].task].scope
			if err := touch(&s, w.scope); err != nil {
				return nil, err
			}
			return []mState{s}, nil
		}
		for v := 0; v < m.workers; v++ { // PopTop of each possible victim
			if v == i || s.w[v].dlen == 0 {
				continue
			}
			n := s
			vw, tw := &n.w[v], &n.w[i]
			m.begin(tw, vw.deque[0])
			copy(vw.deque[:], vw.deque[1:vw.dlen])
			vw.dlen--
			tw.pc = mSplit
			next = append(next, n)
		}
		return next, nil

	case mSplit: // Worker.split: one load, then (privately) a listed or a new scope
		carried := s.tasks[w.frames[0].task].scope
		if err := touch(&s, carried); err != nil {
			return nil, err
		}
		w.pc = mBody
		if s.refs[carried] == 1 && !m.moveCount {
			m.takeovers++
			w.scope = carried
			return []mState{s}, nil
		}
		m.splits++
		var c int8
		if w.nfree > 0 {
			m.reuses++
			w.nfree--
			c = w.free[w.nfree]
			w.free[w.nfree] = 0
			s.listed[c] = false
		} else {
			c = s.nscopes
			s.nscopes++
		}
		s.refs[c], s.parent[c] = 1, carried
		w.scope = c
		if m.moveCount {
			s.refs[carried]--
		}
		return []mState{s}, nil

	case mBody:
		f := &w.frames[w.nframe-1]
		t := &s.tasks[f.task]
		if w.unpub >= 0 { // PushBottom
			w.deque[w.dlen] = w.unpub
			f.last = w.unpub
			w.dlen++
			w.unpub = -1
			return []mState{s}, nil
		}
		// popBack: the bottom is still the child this frame pushed last, so
		// it carries the scope w runs in; a call of it is one more frame.
		if w.nframe < mMaxFrames && w.dlen > 0 && w.deque[w.dlen-1] == f.last {
			n := s
			nw := &n.w[i]
			nw.dlen--
			nw.frames[nw.nframe-1].last = -1
			nw.frames[nw.nframe] = mFrame{task: f.last, last: -1}
			nw.nframe++
			if nw.nframe == mMaxFrames {
				m.nestedCalls++
			}
			next = append(next, n)
		}
		switch {
		case f.spawned < m.fan[t.depth]: // spawn: refs.Add(1)
			if err := touch(&s, w.scope); err != nil {
				return nil, err
			}
			s.refs[w.scope]++
			s.tasks[s.ntasks] = mTask{scope: w.scope, depth: t.depth + 1}
			w.unpub = s.ntasks
			s.ntasks++
			f.spawned++
		case w.nframe > 1: // a call ends, folded: no decrement
			t.ended = true
			w.nframe--
			w.folded++
		default: // the task ends: the first decrement of its release, 1+k
			t.ended = true
			after, err := m.release(s, i, 1+w.folded)
			if err != nil {
				return nil, err
			}
			return append(next, after...), nil
		}
		return append(next, s), nil

	case mReleasing:
		return m.release(s, i, 1)
	}
	panic("unreachable")
}

// begin is exec's entry: task is the one frame of w, and no call has been
// folded yet — unless the control keeps the last task's count.
func (m *scopeModel) begin(w *mWorker, task int8) {
	w.frames[0] = mFrame{task: task, last: -1}
	w.nframe = 1
	if !m.keepFold {
		w.folded = 0
	}
}

// release is one iteration of Worker.release's loop on worker i's scope: n
// is 1+k at a task's end, and 1 up the chain. The decrement that empties a
// child lists it on worker i's free list.
func (m *scopeModel) release(s mState, i int, n int8) ([]mState, error) {
	w := &s.w[i]
	if err := touch(&s, w.scope); err != nil {
		return nil, err
	}
	s.refs[w.scope] -= n
	if m.recycleEarly && s.parent[w.scope] >= 0 {
		m.list(&s, i, w.scope)
	}
	switch {
	case s.refs[w.scope] < 0:
		return nil, fmt.Errorf("scope %d released below zero", w.scope)
	case s.refs[w.scope] > 0:
		w.pc = mIdle
	case s.parent[w.scope] >= 0:
		if !m.recycleEarly {
			m.list(&s, i, w.scope)
		}
		w.pc, w.scope = mReleasing, s.parent[w.scope]
	default:
		w.pc = mIdle
		s.completes++
		if s.completes > 1 {
			return nil, fmt.Errorf("complete fired twice")
		}
		for t := int8(0); t < s.ntasks; t++ {
			if !s.tasks[t].ended {
				return nil, fmt.Errorf("complete fired with task %d un-ended", t)
			}
		}
	}
	return []mState{s}, nil
}

// list pushes scope c on worker i's free list.
func (m *scopeModel) list(s *mState, i int, c int8) {
	w := &s.w[i]
	w.free[w.nfree] = c
	w.nfree++
	s.listed[c] = true
}

// quiescent checks a state no worker can leave: no worker holds a task and
// no deque has one.
func (m *scopeModel) quiescent(s mState) error {
	want := int8(0)
	for d, width := 0, int8(1); ; d++ {
		want += width
		if d == len(m.fan) || m.fan[d] == 0 {
			break
		}
		width *= m.fan[d]
	}
	if s.ntasks != want {
		return fmt.Errorf("quiescent with %d of %d tasks spawned", s.ntasks, want)
	}
	if s.completes != 1 {
		return fmt.Errorf("quiescent with complete fired %d times", s.completes)
	}
	for c := int8(0); c < s.nscopes; c++ {
		if s.refs[c] != 0 {
			return fmt.Errorf("quiescent with scope %d at %d", c, s.refs[c])
		}
		if s.listed[c] != (c > 0) {
			return fmt.Errorf("quiescent with scope %d listed %v", c, s.listed[c])
		}
	}
	n := 0
	for i := range s.w {
		n += int(s.w[i].nfree)
	}
	if n != int(s.nscopes)-1 {
		return fmt.Errorf("quiescent with %d scopes listed for %d child scopes", n, s.nscopes-1)
	}
	return nil
}

func (m *scopeModel) explorer() *explorer[mState] {
	return &explorer[mState]{actors: m.workers, step: m.successors, final: m.quiescent}
}

func TestScopeModelExhaustive(t *testing.T) {
	reuses := 0
	defer func() {
		if reuses == 0 {
			t.Error("no search reached a split that reuses a listed scope")
		}
	}()
	for _, tc := range []struct {
		workers int
		fan     []int8
	}{
		{2, []int8{2, 1, 0}},    // a root with two children, a grandchild each
		{2, []int8{1, 1, 1, 0}}, // a chain: the take-over case of split
		{3, []int8{2, 1, 0}},
		{3, []int8{1, 1, 1, 0}},
		{3, []int8{1, 2, 0}},
		{2, []int8{2, 2, 0}},
	} {
		t.Run(fmt.Sprintf("P=%d/fan=%v", tc.workers, tc.fan), func(t *testing.T) {
			m := &scopeModel{workers: tc.workers, fan: tc.fan}
			m.explorer().verify(t, m.initial())
			if m.splits == 0 || m.takeovers == 0 || m.nestedCalls == 0 {
				t.Fatalf("the search reached %d splits, %d take-overs and %d calls inside calls; want some of each",
					m.splits, m.takeovers, m.nestedCalls)
			}
			reuses += m.reuses
		})
	}
}

// The negative control: a protocol that moves the stolen task's count out
// of the parent scope at the steal lets the parent reach zero — and the
// run complete — while the stolen subtree still runs.
func TestScopeModelCatchesEarlyRelease(t *testing.T) {
	m := &scopeModel{workers: 2, fan: []int8{2, 1, 0}, moveCount: true}
	m.explorer().refute(t, m.initial())
}

// The fold's control: an exec that does not reset the fold count releases
// the calls the worker's previous task folded in the scope of the next one,
// which drives it below zero, or to zero while a task it counts still runs.
func TestScopeModelCatchesFoldKeptAcrossTasks(t *testing.T) {
	m := &scopeModel{workers: 2, fan: []int8{2, 1, 0}, keepFold: true}
	m.explorer().refute(t, m.initial())
}

// The recycling control: a release that lists a child scope on its first
// decrement, not on the one that reaches zero, lists it while tasks still
// count in it, and a later spawn, split or release touches it there.
func TestScopeModelCatchesRecycleOnFirstDecrement(t *testing.T) {
	m := &scopeModel{workers: 2, fan: []int8{2, 1, 0}, recycleEarly: true}
	m.explorer().refute(t, m.initial())
}
