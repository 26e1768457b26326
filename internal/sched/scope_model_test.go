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

const (
	mMaxTasks   = 8
	mMaxScopes  = 8
	mMaxWorkers = 3
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

type mWorker struct {
	pc      int8
	task    int8 // the task in hand (mSplit, mBody)
	scope   int8 // the scope the task runs in (mBody); the one being released (mReleasing)
	spawned int8 // children of the task in hand spawned so far
	unpub   int8 // a child counted by the Add but not yet pushed; -1 if none
	deque   [mMaxTasks]int8
	dlen    int8
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
}

type scopeModel struct {
	workers int
	fan     []int8 // children spawned by a task at each depth
	// moveCount is the broken variant for the negative control: the thief
	// moves the stolen task's count into the child scope at once instead of
	// leaving it in the parent to stand for the child.
	moveCount bool
	// What the search came across, so the test can tell it covered both
	// arms of split.
	splits, takeovers int
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
// have work. A violation of a per-step property comes back as err.
func (m *scopeModel) successors(s mState, i int) (next []mState, err error) {
	w := &s.w[i]
	switch w.pc {
	case mIdle:
		if w.dlen > 0 { // PopBottom
			w.dlen--
			w.task = w.deque[w.dlen]
			w.pc, w.scope, w.spawned = mBody, s.tasks[w.task].scope, 0
			return []mState{s}, nil
		}
		for v := 0; v < m.workers; v++ { // PopTop of each possible victim
			if v == i || s.w[v].dlen == 0 {
				continue
			}
			n := s
			vw, tw := &n.w[v], &n.w[i]
			tw.task = vw.deque[0]
			copy(vw.deque[:], vw.deque[1:vw.dlen])
			vw.dlen--
			tw.pc = mSplit
			next = append(next, n)
		}
		return next, nil

	case mSplit: // scope.split: one load, then (privately) a new scope
		carried := s.tasks[w.task].scope
		w.pc, w.spawned = mBody, 0
		if s.refs[carried] == 1 && !m.moveCount {
			m.takeovers++
			w.scope = carried
			return []mState{s}, nil
		}
		m.splits++
		c := s.nscopes
		s.nscopes++
		s.refs[c], s.parent[c] = 1, carried
		w.scope = c
		if m.moveCount {
			s.refs[carried]--
		}
		return []mState{s}, nil

	case mBody:
		t := &s.tasks[w.task]
		switch {
		case w.unpub >= 0: // PushBottom
			w.deque[w.dlen] = w.unpub
			w.dlen++
			w.unpub = -1
		case w.spawned < m.fan[t.depth]: // spawn: refs.Add(1)
			s.refs[w.scope]++
			s.tasks[s.ntasks] = mTask{scope: w.scope, depth: t.depth + 1}
			w.unpub = s.ntasks
			s.ntasks++
			w.spawned++
		default: // the task ends: the first decrement of its release
			t.ended = true
			return m.release(s, i)
		}
		return []mState{s}, nil

	case mReleasing:
		return m.release(s, i)
	}
	panic("unreachable")
}

// release is one iteration of scope.release's loop on worker i's scope.
func (m *scopeModel) release(s mState, i int) ([]mState, error) {
	w := &s.w[i]
	s.refs[w.scope]--
	switch {
	case s.refs[w.scope] < 0:
		return nil, fmt.Errorf("scope %d released below zero", w.scope)
	case s.refs[w.scope] > 0:
		w.pc = mIdle
	case s.parent[w.scope] >= 0:
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
	}
	return nil
}

func (m *scopeModel) explorer() *explorer[mState] {
	return &explorer[mState]{actors: m.workers, step: m.successors, final: m.quiescent}
}

func TestScopeModelExhaustive(t *testing.T) {
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
			if m.splits == 0 || m.takeovers == 0 {
				t.Fatalf("the search reached %d splits and %d take-overs; want some of each", m.splits, m.takeovers)
			}
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
