package sched

import (
	"fmt"
	"testing"
)

// This file model-checks the worker status word (pool.go, lifecycle.go,
// resize.go) on the explorer of model_test.go. The actors: two workers
// (loop top with its read of the word, a search that takes the work if
// there is any, park — entry CAS, idle count, re-check, sleep, exit CAS —
// retire with its baton, and the retired sleep);
// a producer (push, idle load, status scan in either rotation, token); and
// a Resize that shrinks worker 1 away and grows it back — the reactivating
// CAS, or the store and then the token — at any time. Checked:
//
//   - the status words only move along the diagram;
//   - no lost wakeup: once the producer has returned, unclaimed work never
//     coexists with a fleet of which every member is asleep without a
//     token. That is also what a worker which takes a token and
//     then retires without passing the baton leaves behind;
//   - at quiescence no worker sleeps on without being a wake target, and
//     worker 1, grown back, does not sleep retired;
//   - no stale wake: a park never ends on a token a signalWork sent into the
//     worker's previous idle episode. The exit drops such a token; the
//     model's status load and token send are one step, so it does not see
//     a signaller stalled between the two, whose late token is spurious —
//     harmless, like any other.
//
// The lazy producer is an owner whose work sits in its private region
// (lazy.go): a worker's search that finds nothing asks for it (wantWork)
// and goes on to park, and the owner's poll, once it sees the request,
// clears it, pushes the work and signals. Its control signals before the
// push, and sleeps through a requester whose re-check came in between.

// Worker steps.
const (
	smTop     int8 = iota // loop top: the load of the status word
	smSearch              // pop, poll, steal
	smEnter               // park: the entry CAS
	smCount               // idle.Add(1)
	smRecheck             // anyVisibleWork
	smSleep               // blocked in the select
	smExit                // the exit CAS
	smDrain               // the exit CAS succeeded: drop a pending token
	smUncount             // idle.Add(-1)
	smRetire              // retire: the CAS to retired
	smRetired             // sleepRetired: blocked in the select
	smBaton               // retire's signalWork, and the producer's: the idle load, then smScan's status loads
	smDone    = smBaton + 5
)

// smScan is whom a signalWork's status loads read, in either rotation of
// wakeRR: worker 0 then 1 (steps smBaton+1, +2), or 1 then 0 (+3, +4).
var smScan = [4]int{0, 1, 1, 0}

type smState struct {
	status     [2]uint32
	pc         [2]int8
	token      [2]bool // a token is in parkCh
	sent       [2]bool // ... and a signalWork sent it, into an idle episode
	stale      [2]bool // ... and that episode has ended
	idle, work int8
	prod, res  int8   // steps of the producer (from smBaton-1: the push; -1: the lazy owner's poll) and of the Resize
	loaded     uint32 // the status the Resize's CAS expects
	want       bool   // a worker's request for the lazy owner's work
	pushed     bool   // the producer has pushed its work
}

type statusModel struct {
	recheckFirst bool // negative control: park's only look for work is the one before it publishes idle
	noBaton      bool // negative control: retire does not pass the baton
	tokenFirst   bool // negative control: a grow sends its token, then stores running
	keepToken    bool // negative control: park's exit leaves a pending token in the channel
	lazy         bool // the producer publishes its work only once a worker has asked
	signalFirst  bool // negative control of lazy: the owner signals, then pushes
	// What the search came across, so the test can tell what it covered.
	refused, markedAsleep, reactivated, regrown, sleptAgain int
}

// smEdges is the diagram above the status constants in pool.go.
var smEdges = map[[2]uint32]bool{
	{workerRunning, workerIdle}: true, {workerIdle, workerRunning}: true,
	{workerRunning, workerRetiring}: true, {workerIdle, workerRetiring}: true,
	{workerRetiring, workerRunning}: true, {workerRetiring, workerRetired}: true,
	{workerRetired, workerRunning}: true,
}

// send leaves a token for worker w: a signalWork's, or a Resize's. It
// renews a pending one, which now stands for this send.
func (s *smState) send(w int, signal bool) {
	s.token[w], s.sent[w], s.stale[w] = true, signal, false
}

// cas is a CompareAndSwap on worker w's status.
func (s *smState) cas(w int, from, to uint32) bool {
	if s.status[w] != from {
		return false
	}
	s.status[w] = to
	return true
}

// signal is one step of the signalWork whose step counter pc finds in a
// state; an idle load that finds sleepers leads into either rotation.
func signal(s smState, pc func(*smState) *int8) []smState {
	switch k := *pc(&s) - smBaton; {
	case k == 0 && s.idle > 0:
		rot := s
		*pc(&s), *pc(&rot) = smBaton+1, smBaton+3
		return []smState{s, rot}
	case k > 0 && s.status[smScan[k-1]] == workerIdle:
		s.send(smScan[k-1], true)
		*pc(&s) = smDone
	case k%2 == 0: // no sleepers, or the scan's second load found none
		*pc(&s) = smDone
	default:
		*pc(&s)++
	}
	return []smState{s}
}

func (m *statusModel) step(s smState, a int) ([]smState, error) {
	before := s.status
	var next []smState
	switch {
	case a < 2:
		if s.pc[a] == smSleep && s.token[a] && s.stale[a] {
			return nil, fmt.Errorf("worker %d's park ends on a token sent into its previous idle episode: %+v", a, s)
		}
		next = m.worker(s, a)
	case a == 2 && s.prod < 0: // the lazy owner's poll: nothing to do until asked
		if !s.want {
			return nil, nil
		}
		s.want, s.prod = false, 0
		if m.signalFirst {
			s.prod = smBaton
		}
		next = []smState{s}
	case a == 2 && s.prod < smBaton:
		s.work, s.prod, s.pushed = s.work+1, smBaton, true
		next = []smState{s}
	case a == 2 && s.prod < smDone:
		next = signal(s, func(s *smState) *int8 { return &s.prod })
	case a == 2 && !s.pushed: // signalFirst: the push after the signal
		s.work, s.pushed = s.work+1, true
		next = []smState{s}
	case a == 3:
		next = m.resize(s)
	}
	for _, n := range next {
		for w, st := range n.status {
			if st != before[w] && !smEdges[[2]uint32{before[w], st}] {
				return nil, fmt.Errorf("worker %d's status moved %d → %d, off the diagram", w, before[w], st)
			}
		}
		if n.work > 0 && n.prod == smDone && n.pushed && n.asleep(0) && n.asleep(1) {
			return nil, fmt.Errorf("lost wakeup: work is queued, the producer has returned, and no worker is awake or holds a token: %+v", n)
		}
	}
	return next, nil
}

// asleep: worker w will not look for work unless something wakes it. A
// token wakes a retired sleeper only to read its word and sleep again.
func (s *smState) asleep(w int) bool {
	return s.pc[w] == smSleep && !s.token[w] || s.pc[w] == smRetired && (!s.token[w] || s.status[w] == workerRetired)
}

func (m *statusModel) worker(s smState, w int) []smState {
	pc := &s.pc[w]
	switch *pc {
	case smTop:
		switch *pc = smSearch; s.status[w] {
		case workerRetiring:
			*pc = smRetire
		case workerRetired:
			*pc = smRetired
		}
	case smSearch:
		if *pc = smEnter; s.work > 0 {
			s.work, *pc = s.work-1, smTop
		} else if m.lazy {
			s.want = true // a steal that missed an empty public part
		}
	case smEnter:
		if !s.cas(w, workerRunning, workerIdle) {
			m.refused++
			*pc = smTop
			break
		}
		*pc = smCount
	case smCount:
		if s.idle, *pc = s.idle+1, smRecheck; m.recheckFirst {
			*pc = smSleep
		}
	case smRecheck:
		if *pc = smSleep; s.work > 0 {
			*pc = smExit
		}
	case smSleep: // the select: the token, or not yet
		if !s.token[w] {
			return nil
		}
		s.token[w], *pc = false, smExit
	case smExit:
		*pc = smUncount
		if s.cas(w, workerIdle, workerRunning) {
			s.stale[w] = s.token[w] && s.sent[w]
			if !m.keepToken {
				*pc = smDrain
			}
		}
	case smDrain:
		s.token[w], s.stale[w], *pc = false, false, smUncount
	case smUncount:
		s.idle, *pc = s.idle-1, smTop
	case smRetire:
		switch {
		case !s.cas(w, workerRetiring, workerRetired):
			m.reactivated++
			*pc = smTop
		case m.noBaton:
			*pc = smTop
		default:
			*pc = smBaton
		}
	case smRetired: // the select: the token, or not yet
		if !s.token[w] {
			return nil
		}
		if s.status[w] == workerRetired {
			m.sleptAgain++
		}
		s.token[w], s.stale[w], *pc = false, false, smTop
	default: // the baton, and back to the loop top
		next := signal(s, func(s *smState) *int8 { return &s.pc[w] })
		for i := range next {
			if next[i].pc[w] == smDone {
				next[i].pc[w] = smTop
			}
		}
		return next
	}
	return []smState{s}
}

// resize is Resize(1) then Resize(2) of a fleet of two: the mark's load,
// its CAS, the token for a worker marked asleep; then the reactivating CAS
// or, against a retired slot, the store and the token for its sleeper.
func (m *statusModel) resize(s smState) []smState {
	switch s.res {
	case 0:
		s.loaded = s.status[1]
	case 1:
		switch {
		case !s.cas(1, s.loaded, workerRetiring):
			s.res = -1
		case s.loaded == workerIdle:
			m.markedAsleep++
		default:
			s.res++ // marked running: no token
		}
	case 2:
		s.send(1, false)
	case 3:
		if s.cas(1, workerRetiring, workerRunning) {
			s.res = 5
		} else {
			m.regrown++
		}
	case 4, 5: // the store, then the token; the other way round under tokenFirst
		if (s.res == 4) != m.tokenFirst {
			s.status[1] = workerRunning
		} else {
			s.send(1, false)
		}
	default:
		return nil
	}
	s.res++
	return []smState{s}
}

func (m *statusModel) explorer() *explorer[smState] {
	return &explorer[smState]{actors: 4, step: m.step, final: func(s smState) error {
		if s.work > 0 || !s.pushed || s.pc[1] == smSleep && s.status[1] != workerIdle || s.pc[1] == smRetired {
			return fmt.Errorf("quiescent with work queued or never published, or with worker 1 asleep for good and not a wake target: %+v", s)
		}
		return nil
	}}
}

func TestStatusModelExhaustive(t *testing.T) {
	m := &statusModel{}
	m.explorer().verify(t, smState{})
	if m.refused == 0 || m.markedAsleep == 0 || m.reactivated == 0 || m.regrown == 0 || m.sleptAgain == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// The negative controls: a park whose last look for work comes before its
// running → idle CAS sleeps through a push whose scan came in between, a
// retire that passes no baton takes the fleet's one token with it, and a
// grow whose token comes before its store wakes a sleeper that reads retired
// and sleeps on, in a slot marked running.
func TestStatusModelCatchesRecheckBeforeCAS(t *testing.T) {
	(&statusModel{recheckFirst: true}).explorer().refute(t, smState{})
}

func TestStatusModelCatchesMissingBaton(t *testing.T) {
	(&statusModel{noBaton: true}).explorer().refute(t, smState{})
}

func TestStatusModelCatchesTokenBeforeStore(t *testing.T) {
	(&statusModel{tokenFirst: true}).explorer().refute(t, smState{})
}

// A park whose exit keeps a pending token: the worker parks, the producer's
// push and signal land while its re-check already sees the work, and the
// token the signal sent outlives the episode — the next park ends on it.
func TestStatusModelCatchesStaleToken(t *testing.T) {
	(&statusModel{keepToken: true}).explorer().refute(t, smState{})
}

// The lazy owner: its work is published only once a worker that found
// nothing has asked, and that worker goes on to park meanwhile — the
// request is a hint, not a handshake, so the push and the signal after it
// must still meet the park's publish and re-check.
func TestStatusModelLazyOwner(t *testing.T) {
	m := &statusModel{lazy: true}
	m.explorer().verify(t, smState{prod: -1})
}

// The lazy owner's control: a signal made before the push reads no idle
// worker while the requester is on its way to park, whose re-check then
// comes before the push — and it sleeps with the work queued.
func TestStatusModelCatchesSignalBeforePush(t *testing.T) {
	(&statusModel{lazy: true, signalFirst: true}).explorer().refute(t, smState{prod: -1})
}
