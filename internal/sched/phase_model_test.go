package sched

import (
	"fmt"
	"testing"
)

// This file model-checks the session phase word (pool.go, serve.go,
// drain.go) on the explorer of model_test.go. The actors: a Submit (gate
// load, register, push, re-load); two Drains (the CAS with the look at the
// registry — one critical section, as in Drain — then the wait for the run
// it saw there to end, which its deadline may cut short at any time, and
// the read of how the run ended); a Serve that stops at any time — its
// context may be cancelled, which covers the stop a Drain asks for — and
// starts once more; a worker that pops the submission and ends it. Checked
// on every path:
//
//   - the phase only moves along the diagram, and one Drain wins a session;
//   - a live handle is returned under serving only — none once a Drain's
//     CAS or the store of stopping has closed admission;
//   - a handle that was out and standing at a Drain's CAS is completed,
//     never aborted, if that Drain reports success;
//   - at quiescence no returned handle is left unfinished, and the
//     registry, which every Drain to come waits on, is empty.

// How the submission ended: completed, or aborted — by its context
// (ctx.Err()), by its own Submit reading draining after the push
// (ErrDraining), or by a stop: endSession's abort of the registry, a sweep,
// or its own Submit reading a stopped session (ErrStopped).
const (
	pmLive int8 = iota
	pmCompleted
	pmCancelled
	pmRejected
	pmStopped
)

type pmState struct {
	phase   uint32
	pc      [4]int8 // steps taken by: the Submit, the two Drains, Serve
	sess    int8    // session records published so far; the live one is the last
	workers bool    // the live session's workers exist
	// The submission: in the registry, its root in the injector, its handle
	// returned to the caller, its outcome.
	reg, queued, handle bool
	out                 int8
	// Its context: the watcher is armed, the context cancelled.
	armed, cancelled bool
	// Per session record (Serve runs twice): the Drains that won it.
	wins [3]int8
	// Per Drain: whether its look found the run in the registry — the run
	// it then waits for — and whether a handle was out and standing at its
	// CAS.
	saw, covered [2]bool
}

type phaseModel struct {
	// The negative controls: Submit returns right after its push; Submit
	// arms the cancellation before it registers (the order PR 22 fixed); a
	// Drain takes the end of the run it waited for as its completion.
	noReload, armFirst, noOutcomeRead bool
	// What the search came across, so the test can tell what it covered.
	accepted, selfRejected, won, lost, okDrains, stoppedDrains, sweepAborts, cancelAborts int
}

// pmEdges is the diagram above the phase constants in pool.go.
var pmEdges = map[[2]uint32]bool{
	{phaseIdle, phaseBatch}: true, {phaseBatch, phaseServing}: true, {phaseBatch, phaseStopping}: true,
	{phaseServing, phaseDraining}: true, {phaseServing, phaseStopping}: true, {phaseDraining, phaseStopping}: true,
	{phaseStopping, phaseIdle}: true,
}

// move is a store, or a CAS that wins, on the phase word.
func (s *pmState) move(to uint32) error {
	from := s.phase
	s.phase = to
	if !pmEdges[[2]uint32{from, to}] {
		return fmt.Errorf("the phase moved %d → %d, off the diagram", from, to)
	}
	return nil
}

// finish ends the submission if nothing has yet: finishOnce, with the
// unregister inside it, and the completion word a Drain waits on.
func (s *pmState) finish(out int8) {
	if s.out == pmLive {
		s.out, s.reg = out, false
	}
}

// sweep is drainByRun: the root it finds it discards, aborting its run.
func (m *phaseModel) sweep(s *pmState) {
	if !s.queued {
		return
	}
	if s.out == pmLive {
		m.sweepAborts++
	}
	s.queued = false
	s.finish(pmStopped)
}

// step is one step of actor a: 0 the Submit (SubmitContext), 1 and 2 the
// Drains, 3 Serve — enter, startSession, open, and, whenever the search
// schedules it, the four steps of endSession — 4 a worker, and 5 the
// Submit's context.
func (m *phaseModel) step(s pmState, a int) ([]pmState, error) {
	if a == 5 { // cancelled: the watcher aborts the submission
		if !s.armed || s.cancelled {
			return nil, nil
		}
		if s.cancelled = true; s.out == pmLive {
			m.cancelAborts++
		}
		s.finish(pmCancelled)
		return []pmState{s}, nil
	}
	if a == 4 { // pop the root and run it — or discard it, its run aborted
		if !s.workers || !s.queued {
			return nil, nil
		}
		s.queued = false
		s.finish(pmCompleted)
		return []pmState{s}, nil
	}
	var err error
	hand := func() { // Submit returns the handle to its caller
		s.handle = true
		if s.out == pmLive && s.phase != phaseServing {
			err = fmt.Errorf("a live handle was returned in phase %d", s.phase)
		}
	}
	pc, d := &s.pc[a], a-1 // d: which Drain, if a is one
	switch {
	case a == 0:
		switch *pc {
		case 0: // the gate: anything but serving is an error return
			if s.phase != phaseServing {
				*pc = 4
			}
		case 1, 2: // register — whatever has happened to the run — then arm
			if (*pc == 1) != m.armFirst {
				s.reg = true
			} else {
				s.armed = true
			}
		case 3: // the push
			s.queued = true
			if m.noReload {
				hand()
				*pc = 4
			}
		case 4: // the re-load
			switch s.phase {
			case phaseServing:
				m.accepted++
				hand()
			case phaseDraining: // rejects itself: no handle
				m.selfRejected++
				s.finish(pmRejected)
			default: // stopped: a handle, already aborted
				s.finish(pmStopped)
				hand()
			}
		default:
			return nil, nil
		}
	case a <= 2:
		switch *pc {
		case 0: // the CAS and the look at the registry
			if s.phase != phaseServing { // lost: to the other Drain, or to a stop
				m.lost++
				*pc = 1
				break
			}
			m.won++
			err = s.move(phaseDraining)
			s.saw[d], s.covered[d] = s.reg, s.handle && (s.out == pmLive || s.out == pmCompleted)
			if s.wins[s.sess]++; s.wins[s.sess] > 1 {
				err = fmt.Errorf("two Drains won session %d", s.sess)
			}
		case 1: // the wait ends: the run it saw has ended, or the deadline cuts it short, promising nothing
			if s.saw[d] && s.out == pmLive {
				break
			}
			if s.saw[d] && s.out == pmStopped && !m.noOutcomeRead { // a stop ended the run: ErrNotServing
				m.stoppedDrains++
				break
			}
			m.okDrains++
			if s.covered[d] && s.out != pmCompleted && s.out != pmCancelled {
				err = fmt.Errorf("a Drain reports success, and the handle that was out at its CAS ended %d", s.out)
			}
		default:
			return nil, nil
		}
	default:
		switch *pc {
		case 0:
			err = s.move(phaseBatch)
		case 1: // startSession: sweep, publish the record, fork
			m.sweep(&s)
			s.sess, s.workers = s.sess+1, true
		case 2:
			err = s.move(phaseServing)
		case 3:
			err = s.move(phaseStopping)
		case 4: // abort the registry
			if s.reg {
				s.finish(pmStopped)
			}
		case 5: // quit, join, sweep
			s.workers = false
			m.sweep(&s)
		case 6:
			if err = s.move(phaseIdle); s.sess < 2 {
				*pc = -1 // Serve again
			}
		default:
			return nil, nil
		}
	}
	*pc++
	return []pmState{s}, err
}

func (m *phaseModel) explorer() *explorer[pmState] {
	return &explorer[pmState]{actors: 6, step: m.step, final: func(s pmState) error {
		if s.handle && s.out == pmLive {
			return fmt.Errorf("quiescent with the returned handle unfinished")
		}
		if s.reg {
			return fmt.Errorf("quiescent with the run, which ended %d, still in the registry", s.out)
		}
		return nil
	}}
}

func TestPhaseModelExhaustive(t *testing.T) {
	m := &phaseModel{}
	m.explorer().verify(t, pmState{})
	if m.accepted == 0 || m.selfRejected == 0 || m.won == 0 || m.lost == 0 || m.okDrains == 0 || m.stoppedDrains == 0 || m.sweepAborts == 0 || m.cancelAborts == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// The negative control: without the post-push re-load, a Submit whose gate
// read serving returns its handle whatever a Drain or a stop did since.
func TestPhaseModelCatchesMissingRecheck(t *testing.T) {
	(&phaseModel{noReload: true}).explorer().refute(t, pmState{})
}

// The negative control of the order in SubmitContext: armed before it is
// registered, a run whose context cancels in between is finished — its
// unregister finds nothing — and then registered for good.
func TestPhaseModelCatchesArmBeforeRegister(t *testing.T) {
	(&phaseModel{armFirst: true}).explorer().refute(t, pmState{})
}

// The negative control of the read in Drain's wait: a Drain that takes the
// end of the run it waited for as its completion reports success over a
// handle the stop aborted.
func TestPhaseModelCatchesDrainOverAbort(t *testing.T) {
	(&phaseModel{noOutcomeRead: true}).explorer().refute(t, pmState{})
}
