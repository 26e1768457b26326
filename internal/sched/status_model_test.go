package sched

import (
	"fmt"
	"testing"

	"worksteal/internal/modelcheck"
)

// This file model-checks the worker status word (pool.go, lifecycle.go,
// resize.go) on internal/modelcheck. The actors: two workers
// (loop top with its read of the word, a search that takes the work if
// there is any, park — the sleep's number, entry CAS, idle count,
// re-check, sleep, the re-check a token not its own makes, exit CAS —
// retire with its baton, and the retired sleep); a producer (push, idle
// load, and per worker of the scan, from either start, the load of its
// sleep number, the load of its status and the token); and a Resize that
// shrinks worker 1 away and grows it back — the reactivating CAS, or the
// store and then the token — at any time. A token carries the number of
// the sleep its signaller loaded, or none (Resize's). Checked:
//
//   - the status words only move along the diagram;
//   - no lost wakeup: once the producer has returned, unclaimed work never
//     coexists with a fleet of which every member is asleep without a
//     token. That is also what a worker which takes a token and
//     then retires without passing the baton leaves behind;
//   - at quiescence no worker sleeps on without being a wake target, and
//     worker 1, grown back, does not sleep retired;
//   - no stale wake: a park never ends on a token sent for an earlier
//     sleep. A signaller stalled between its load of the status and its
//     send — a step apart here — sends such a token; the park takes it,
//     re-checks, and sleeps on. Today's shape before the numbers, which
//     took any token as its wake and dropped what was pending at its exit,
//     is refuted, and so is a scan that loads the status before the number.
//
// The lazy producer is an owner whose work sits in its private region
// (lazy.go): a worker's search that finds nothing asks for it (wantWork)
// and goes on to park, and the owner's poll, once it sees the request,
// clears it, pushes the work and signals. Its control signals before the
// push, and sleeps through a requester whose re-check came in between.
//
// The session's end (endSession) is a fifth actor in its own search: the
// store of stopping, the abort of what is in flight — a token for the
// current sleep of each worker whose status is running or retiring, the
// statuses a task, and so a blocked join, runs under; a park not yet past
// its entry CAS may end on it as a wake — then a token for each worker, at
// any time. Checked on top: at quiescence both workers have left their
// loops — no sleep, parked or retired, outlives the session. Its control
// sends the tokens first, and a sleeper that re-checked before the store
// sleeps on.
//
// The burst is a search of its own, with no Resize: the producer pushes and
// signals twice, and a task blocks its worker for good, as the plugs of
// TestChaosBurstOnOneParkWakesBoth do. A worker whose park published its
// status and took it back passes one wake on when it takes a task and still
// sees work (loop, lifecycle.go). Checked on top: two signals made while
// both workers sleep wake both — the lost wakeup above, with a worker in its
// task counted as asleep. Its control passes a wake on only after a park
// that ended on its own token, and a park whose re-check saw the first push
// leaves the other worker asleep.
//
// The search stores a state as the word key packs, and prunes interleavings
// by the footprint of each step (footprint); the counts pinned below are
// those of the full search.

// Worker steps.
const (
	smTop     int8 = iota // loop top: the phase's load, then the status word's
	smSearch              // pop, poll, steal
	smNumber              // park: sleep.Add(1), the number of this sleep
	smEnter               // park: the entry CAS
	smCount               // idle.Add(1)
	smRecheck             // the phase, and anyVisibleWork
	smSleep               // blocked on the token channel
	smReload              // a token not this sleep's: the phase, the status word, anyVisibleWork
	smExit                // the exit CAS
	smDrain               // today's shape only: the exit CAS succeeded, drop a pending token
	smUncount             // idle.Add(-1)
	smRetire              // retire: the CAS to retired
	smRetired             // sleepRetired: blocked on the token channel
	smGone                // the loop read stopping and returned
	smPass                // burst: back from a park with a task, the look for more work
	smBusy                // burst: in its task, which blocks until the burst's last task runs
	smBaton               // retire's signalWork, the producer's, and a passed-on wake: the idle load, then the scan (smScan)
	smDone    = smBaton + 13
)

// smScan is the order a signalWork scans the two workers in, per start:
// signalWork draws its start at random, so the model takes both. A scan's
// step is smBaton+1 + 6*start + 3*position + sub, where sub is the load of
// the worker's sleep number (0), of its status (1), and the token (2).
var smScan = [2][2]int{{0, 1}, {1, 0}}

// smTarget is the worker a signal at step pc is scanning.
func smTarget(pc int8) int {
	k := pc - smBaton - 1
	return smScan[k/6][k%6/3]
}

type smState struct {
	status [2]uint32
	pc     [2]int8
	token  [2]bool // a token is in the worker's sleep
	tokSig [2]bool // ... and a signalWork sent it
	tokCur [2]bool // ... carrying the number of the sleep the worker is in or entering now
	tokNow [2]bool // ... having read the idle status of that sleep
	// fresh and saw say that a signaller — the batons of workers 0 and 1,
	// and the producer — has loaded the sleep number, and the idle status,
	// of the worker it is scanning since that worker last numbered a sleep.
	fresh, saw [3]bool
	idle, work int8
	prod, res  int8   // steps of the producer (from smBaton-1: the push; -1: the lazy owner's poll) and of the Resize
	loaded     uint32 // the status the Resize's CAS expects
	want       bool   // a worker's request for the lazy owner's work
	pushed     bool   // the producer has pushed its work
	stopping   bool   // the phase is stopping
	end        int8   // steps of endSession
	more       bool   // burst: the producer's second push and signal are to come
	// parked is the loop's flag: the worker's last park published its
	// status and took it back (under passOnWake: ended on its own token).
	parked [2]bool
}

type statusModel struct {
	recheckFirst bool // negative control: park's only look for work is the one before it publishes idle
	noBaton      bool // negative control: retire does not pass the baton
	tokenFirst   bool // negative control: a grow sends its token, then stores running
	// untagged is today's shape before the sleep numbers: any token ends a
	// park as its wake, and the exit drops what is pending. keepToken, the
	// older control, does not drop it either.
	untagged, keepToken bool
	numberLate          bool // negative control: the scan loads a worker's status, then its sleep number
	lazy                bool // the producer publishes its work only once a worker has asked
	signalFirst         bool // negative control of lazy: the owner signals, then pushes
	end                 bool // endSession runs, at any time
	endTokensFirst      bool // negative control of end: the tokens, then the store of stopping
	burst               bool // the producer pushes and signals twice, and each task blocks its worker
	passOnWake          bool // negative control of burst: only a park that ended on a wake passes one on
	// What the search came across, so the test can tell what it covered.
	refused, markedAsleep, reactivated, regrown, sleptAgain, foreign, ended, aborts int
	buf                                                                             []smState
}

// out returns the successors next, in a buffer the next step reuses.
func (m *statusModel) out(next ...smState) []smState {
	m.buf = append(m.buf[:0], next...)
	return m.buf
}

// smEdges is the diagram above the status constants in pool.go.
var smEdges = [4][4]bool{
	workerRunning:  {workerIdle: true, workerRetiring: true},
	workerIdle:     {workerRunning: true, workerRetiring: true},
	workerRetiring: {workerRunning: true, workerRetired: true},
	workerRetired:  {workerRunning: true},
}

// send leaves a token for worker w — signaller j's, for the sleep number it
// loaded, or a Resize's or endSession's (j < 0), for none — unless one is
// pending: a send to a full channel is dropped.
func (s *smState) send(w, j int) {
	if !s.token[w] {
		s.token[w], s.tokSig[w], s.tokCur[w], s.tokNow[w] = true, j >= 0, j >= 0 && s.fresh[j], j >= 0 && s.saw[j]
	}
}

// cas is a CompareAndSwap on worker w's status.
func (s *smState) cas(w int, from, to uint32) bool {
	if s.status[w] != from {
		return false
	}
	s.status[w] = to
	return true
}

// signal is one step of the signalWork of signaller j (smState.fresh); an
// idle load that finds sleepers leads into either start.
func (m *statusModel) signal(s smState, j int) []smState {
	pc := &s.prod
	if j < 2 {
		pc = &s.pc[j]
	}
	k := *pc - smBaton
	if k == 0 {
		if s.idle == 0 {
			*pc = smDone
			return m.out(s)
		}
		*pc = smBaton + 1
		rot := s
		if j < 2 {
			rot.pc[j] = smBaton + 7
		} else {
			rot.prod = smBaton + 7
		}
		return m.out(s, rot)
	}
	w := smTarget(*pc)
	switch sub := (k - 1) % 3; {
	case sub == 0 && m.numberLate, sub == 1 && !m.numberLate: // the status: idle, or on to the next worker, or done
		s.saw[j] = true
		switch {
		case s.status[w] == workerIdle:
			*pc++
		case (k-1)%6 < 3:
			*pc += 3 - sub
		default:
			*pc = smDone
		}
	case sub < 2: // the sleep number
		s.fresh[j] = true
		*pc++
	default:
		s.send(w, j)
		*pc = smDone
	}
	return m.out(s)
}

func (m *statusModel) step(s smState, a int) ([]smState, error) {
	before := s.status
	var next []smState
	var err error
	switch {
	case a < 2:
		next, err = m.worker(s, a)
	case a == 2 && s.prod < 0: // the lazy owner's poll: nothing to do until asked
		if !s.want {
			return nil, nil
		}
		s.want, s.prod = false, 0
		if m.signalFirst {
			s.prod = smBaton
		}
		next = m.out(s)
	case a == 2 && s.prod < smBaton:
		s.work, s.prod, s.pushed = s.work+1, smBaton, true
		next = m.out(s)
	case a == 2 && s.prod < smDone:
		next = m.signal(s, 2)
		for i := range next {
			if next[i].prod == smDone && next[i].more {
				next[i].prod, next[i].more = 0, false
			}
		}
	case a == 2 && !s.pushed: // signalFirst: the push after the signal
		s.work, s.pushed = s.work+1, true
		next = m.out(s)
	case a == 3:
		next = m.resize(s)
	case a == 4:
		next = m.endSession(s)
	}
	if err != nil {
		return nil, err
	}
	for i := range next {
		n := &next[i]
		for w, st := range n.status {
			if st != before[w] && !smEdges[before[w]][st] {
				return nil, fmt.Errorf("worker %d's status moved %d → %d, off the diagram", w, before[w], st)
			}
		}
		if n.work > 0 && n.prod == smDone && n.pushed && n.asleep(0) && n.asleep(1) {
			return nil, fmt.Errorf("lost wakeup: work is queued, the producer has returned, and no worker is awake or holds a token: %+v", *n)
		}
	}
	return next, nil
}

// scanning says signaller j's scan is at worker w.
func (s *smState) scanning(j, w int) bool {
	pc := s.prod
	if j < 2 {
		pc = s.pc[j]
	}
	return pc > smBaton && pc < smDone && smTarget(pc) == w
}

// asleep: worker w will not look for work unless something wakes it. A
// token wakes a retired sleeper only to read its word and sleep again. A
// burst's task blocks its worker for good.
func (s *smState) asleep(w int) bool {
	return s.pc[w] == smBusy || s.pc[w] == smSleep && !s.token[w] || s.pc[w] == smRetired && (!s.token[w] || s.status[w] == workerRetired)
}

func (m *statusModel) worker(s smState, w int) ([]smState, error) {
	pc := &s.pc[w]
	switch *pc {
	case smTop:
		if s.stopping {
			*pc = smGone
			break
		}
		switch *pc = smSearch; s.status[w] {
		case workerRetiring:
			*pc = smRetire
		case workerRetired:
			*pc = smRetired
		}
	case smSearch:
		if *pc = smNumber; s.work > 0 {
			s.work, *pc = s.work-1, smTop
			if m.burst {
				if *pc = smBusy; s.parked[w] {
					*pc = smPass
				}
				s.parked[w] = false
			}
		} else if m.lazy {
			s.want = true // a steal that missed an empty public part
		}
	case smNumber:
		// A new number: what was loaded or sent for an earlier one is not
		// this sleep's.
		s.tokCur[w], s.tokNow[w] = false, false
		for j := range s.fresh {
			if s.scanning(j, w) {
				s.fresh[j], s.saw[j] = false, false
			}
		}
		*pc = smEnter
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
		if *pc = smSleep; s.stopping || s.work > 0 {
			*pc = smExit
		}
	case smSleep: // the receive: a token, or not yet
		if !s.token[w] {
			return nil, nil
		}
		sig, cur, now := s.tokSig[w], s.tokCur[w], s.tokNow[w]
		s.token[w] = false
		if !cur && !m.untagged && !m.keepToken {
			m.foreign++
			*pc = smReload
			break
		}
		if sig && !now {
			return nil, fmt.Errorf("worker %d's park ends on a token sent for an earlier sleep: %+v", w, s)
		}
		s.parked[w] = s.parked[w] || m.passOnWake
		*pc = smExit
	case smReload:
		if *pc = smSleep; s.stopping || s.status[w] != workerIdle || s.work > 0 {
			*pc = smExit
		}
	case smExit:
		*pc = smUncount
		back := s.cas(w, workerIdle, workerRunning)
		if back && m.untagged {
			*pc = smDrain
		}
		if back && m.burst && !m.passOnWake {
			s.parked[w] = true
		}
	case smDrain:
		s.token[w], *pc = false, smUncount
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
	case smRetired: // the receive: a token, or not yet
		if !s.token[w] {
			return nil, nil
		}
		if s.status[w] == workerRetired && !s.stopping {
			m.sleptAgain++
		}
		s.token[w], *pc = false, smTop
	case smPass:
		if *pc = smBusy; s.work > 0 {
			*pc = smBaton
		}
	case smGone, smBusy:
		return nil, nil
	default: // the baton or the passed-on wake, and back to the loop top or into the task
		next := m.signal(s, w)
		for i := range next {
			if next[i].pc[w] == smDone {
				next[i].pc[w] = smTop
				if m.burst {
					next[i].pc[w] = smBusy
				}
			}
		}
		return next, nil
	}
	return m.out(s), nil
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
		s.send(1, -1)
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
			s.send(1, -1)
		}
	default:
		return nil
	}
	s.res++
	return m.out(s)
}

// endSession is the store of stopping, then, per worker, the abort of what
// is in flight and the token of the end: the abort sends a token for the
// worker's current sleep if its status is one a task runs under (wakeIf),
// which ends a park whose entry CAS is still to come as a wake, and then
// the token of the end, which that one keeps out; else the token of the
// end alone. The tokens come first under endTokensFirst.
func (m *statusModel) endSession(s smState) []smState {
	if !m.end || s.end == 3 {
		return nil
	}
	store := int8(0)
	if m.endTokensFirst {
		store = 2
	}
	w := int(s.end)
	if s.end > store {
		w--
	}
	switch {
	case s.end == store:
		s.stopping = true
		m.ended++
	case (s.status[w] == workerRunning || s.status[w] == workerRetiring) && !s.token[w]:
		m.aborts++
		s.token[w], s.tokSig[w], s.tokCur[w], s.tokNow[w] = true, false, true, false
	default:
		s.send(w, -1)
	}
	s.end++
	return m.out(s)
}

func (m *statusModel) model() modelcheck.Model[smState] {
	actors := 4
	if m.end {
		actors = 5
	}
	return modelcheck.Model[smState]{Actors: actors, Step: m.step, Key: smState.key, Footprint: m.footprint, Final: func(s smState) error {
		if m.end && s.stopping {
			if s.pc != [2]int8{smGone, smGone} {
				return fmt.Errorf("quiescent after the session's end with a worker still in its loop: %+v", s)
			}
			return nil
		}
		if s.work > 0 || !s.pushed || s.pc[1] == smSleep && s.status[1] != workerIdle || s.pc[1] == smRetired {
			return fmt.Errorf("quiescent with work queued or never published, or with worker 1 asleep for good and not a wake target: %+v", s)
		}
		return nil
	}}
}

func (s smState) key() uint64 {
	var p modelcheck.Packer
	for w := range 2 {
		p = p.Put(int(s.status[w]), 2).Put(int(s.pc[w]), 5)
		p = p.Bool(s.token[w]).Bool(s.tokSig[w]).Bool(s.tokCur[w]).Bool(s.tokNow[w]).Bool(s.parked[w])
	}
	for j := range 3 {
		p = p.Bool(s.fresh[j]).Bool(s.saw[j])
	}
	p = p.Put(int(s.idle), 2).Put(int(s.work), 2).Put(int(s.prod)+1, 5).Put(int(s.res)+1, 3).Put(int(s.loaded), 2)
	return p.Bool(s.want).Bool(s.pushed).Bool(s.stopping).Put(int(s.end), 2).Bool(s.more).Key()
}

// The variables of the status model's footprints: per worker its status
// word and its token, with what the token carries; per signaller its fresh
// and saw, and per signaller and worker whether the scan is at the worker,
// which a worker's numbering reads; the shared counts and flags. An actor's
// program counter and locals no other step reads.
const (
	smvStatus = 0 // + worker
	smvToken  = 2 // + worker
	smvFresh  = 4 // + signaller
	smvScan   = 7 // + 2*signaller + worker
	smvIdle   = 13
	smvWork   = 14
	smvWant   = 15
	smvStop   = 16
)

// footprint is what the step of actor a from s reads and writes. A write
// that leaves the variable as it is — a failed CAS, a send to a full
// channel, a flag set again — is only a read.
func (m *statusModel) footprint(s smState, a int) (f modelcheck.Footprint) {
	rd := func(v int) { f.Reads |= 1 << v }
	wr := func(v int, changes bool) {
		if changes {
			f.Writes |= 1 << v
		} else {
			rd(v)
		}
	}
	pc, st := s.prod, s.status[a%2]
	if a < 2 {
		pc = s.pc[a]
	}
	switch {
	case a == 3 && (s.res == 2 || s.res >= 4 && (s.res == 4) == m.tokenFirst): // a token for worker 1
		wr(smvToken+1, !s.token[1])
	case a == 3: // worker 1's status: the load, a CAS or the store
		wr(smvStatus+1, s.res == 1 && st == s.loaded || s.res == 3 && st == workerRetiring || s.res >= 4 && st != workerRunning)
	case a == 4: // the store of stopping, or worker t's token
		store, t := int8(0), int(s.end)-1
		if m.endTokensFirst {
			store, t = 2, t+1
		}
		if s.end == store {
			wr(smvStop, !s.stopping)
		} else {
			rd(smvStatus + t)
			wr(smvToken+t, !s.token[t])
		}
	case a == 2 && pc < 0: // the lazy owner's poll
		wr(smvWant, true)
	case a == 2 && (pc < smBaton || pc == smDone): // a push
		wr(smvWork, true)
	case pc == smTop:
		rd(smvStop)
		rd(smvStatus + a)
	case pc == smPass, pc == smRecheck:
		rd(smvStop)
		rd(smvWork)
	case pc == smReload:
		rd(smvStop)
		rd(smvStatus + a)
		rd(smvWork)
	case pc == smSearch:
		wr(smvWork, s.work > 0)
		wr(smvWant, m.lazy && s.work == 0 && !s.want)
	case pc == smNumber:
		wr(smvToken+a, s.tokCur[a] || s.tokNow[a])
		for j := range 3 {
			rd(smvScan + 2*j + a)
			if s.scanning(j, a) {
				wr(smvFresh+j, s.fresh[j] || s.saw[j])
			}
		}
	case pc == smEnter:
		wr(smvStatus+a, st == workerRunning)
	case pc == smExit:
		wr(smvStatus+a, st == workerIdle)
	case pc == smRetire:
		wr(smvStatus+a, st == workerRetiring)
	case pc == smCount, pc == smUncount:
		wr(smvIdle, true)
	case pc == smSleep, pc == smDrain, pc == smRetired:
		wr(smvToken+a, s.token[a])
	case pc == smBaton: // the idle load, and into the scan at either start
		rd(smvIdle)
		wr(smvScan+2*a, s.idle > 0)
		wr(smvScan+2*a+1, s.idle > 0)
	default: // a scan's step at worker t
		t, k := smTarget(pc), pc-smBaton-1
		switch sub := k % 3; {
		case sub == 2: // the token, and out of the scan
			rd(smvFresh + a)
			wr(smvToken+t, !s.token[t])
			wr(smvScan+2*a+t, true)
		case (sub == 1) != m.numberLate: // the status, and unless idle on to the next worker or out
			rd(smvStatus + t)
			wr(smvFresh+a, !s.saw[a])
			wr(smvScan+2*a+t, s.status[t] != workerIdle)
			wr(smvScan+2*a+1-t, s.status[t] != workerIdle && k%6 < 3)
		default: // the sleep number
			wr(smvFresh+a, !s.fresh[a])
		}
	}
	return f
}

func TestStatusModelExhaustive(t *testing.T) {
	m := &statusModel{}
	m.model().Verify(t, smState{}, 333953, 94)
	if m.refused == 0 || m.markedAsleep == 0 || m.reactivated == 0 || m.regrown == 0 || m.sleptAgain == 0 || m.foreign == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// The negative controls: a park whose last look for work comes before its
// running → idle CAS sleeps through a push whose scan came in between, a
// retire that passes no baton takes the fleet's one token with it, and a
// grow whose token comes before its store wakes a sleeper that reads retired
// and sleeps on, in a slot marked running.
func TestStatusModelCatchesRecheckBeforeCAS(t *testing.T) {
	(&statusModel{recheckFirst: true}).model().Refute(t, smState{})
}

func TestStatusModelCatchesMissingBaton(t *testing.T) {
	(&statusModel{noBaton: true}).model().Refute(t, smState{})
}

func TestStatusModelCatchesTokenBeforeStore(t *testing.T) {
	(&statusModel{tokenFirst: true}).model().Refute(t, smState{})
}

// A park that takes any token as its wake and keeps what is pending at its
// exit: the worker parks, the producer's push and signal land while its
// re-check already sees the work, and the token the signal sent outlives
// the sleep — the next park ends on it.
func TestStatusModelCatchesStaleToken(t *testing.T) {
	(&statusModel{keepToken: true}).model().Refute(t, smState{})
}

// Today's shape before the sleep numbers: a park that takes any token as
// its wake, and drops what is pending at its exit. A signaller that loaded
// the worker's idle status and stalled before its send leaves its token
// after the drop, and the next park ends on it.
func TestStatusModelCatchesUntaggedToken(t *testing.T) {
	(&statusModel{untagged: true}).model().Refute(t, smState{})
}

// The order of the scan's loads: a signaller that loads the status before
// the sleep number reads an earlier sleep's idle, stalls while the worker
// wakes, runs and parks again, and then loads the new sleep's number — the
// token it sends ends a sleep it was not sent for.
func TestStatusModelCatchesNumberAfterStatus(t *testing.T) {
	(&statusModel{numberLate: true}).model().Refute(t, smState{})
}

// The lazy owner: its work is published only once a worker that found
// nothing has asked, and that worker goes on to park meanwhile — the
// request is a hint, not a handshake, so the push and the signal after it
// must still meet the park's publish and re-check.
func TestStatusModelLazyOwner(t *testing.T) {
	m := &statusModel{lazy: true}
	m.model().Verify(t, smState{prod: -1}, 463083, 94)
}

// The lazy owner's control: a signal made before the push reads no idle
// worker while the requester is on its way to park, whose re-check then
// comes before the push — and it sleeps with the work queued.
func TestStatusModelCatchesSignalBeforePush(t *testing.T) {
	(&statusModel{lazy: true, signalFirst: true}).model().Refute(t, smState{prod: -1})
}

// The session's end: the store of stopping, then a token for each slot, at
// any time — both workers leave their loops, whatever sleep the end finds
// them in, parked or retired.
func TestStatusModelSessionEnd(t *testing.T) {
	m := &statusModel{end: true}
	m.model().Verify(t, smState{}, 3188970, 1134)
	if m.ended == 0 || m.foreign == 0 || m.sleptAgain == 0 || m.aborts == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// The session end's control: tokens sent before the store of stopping. A
// parked worker takes its token as one not its own, re-checks before the
// store, and sleeps on with nothing left to wake it.
func TestStatusModelCatchesTokensBeforeStopping(t *testing.T) {
	(&statusModel{end: true, endTokensFirst: true}).model().Refute(t, smState{})
}

// A burst: the producer pushes and signals twice, and a task blocks its
// worker until the burst's last task runs — here, for good. A signal's
// random start may find one worker idle both times, on its way into a
// park or out of one, and leave the other asleep; the worker whose park
// published its status and took it back passes one wake on when it takes
// its task and still sees work. Checked: two signals made while two workers
// sleep wake both — the lost wakeup above, with a blocked worker asleep.
func TestStatusModelBurst(t *testing.T) {
	(&statusModel{burst: true}).model().Verify(t, smState{res: 6, more: true}, 63854, 121)
}

// The burst's control, the pass-on's first shape: only a park that ended on
// a wake passes one on. A worker whose re-check sees the burst's first push
// leaves its park without sleeping while both signals find it idle, takes
// the first task, and the other worker sleeps through the second.
func TestStatusModelCatchesPassOnOnlyAfterWake(t *testing.T) {
	(&statusModel{burst: true, passOnWake: true}).model().Refute(t, smState{res: 6, more: true})
}
