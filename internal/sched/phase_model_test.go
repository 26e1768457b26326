package sched

import (
	"fmt"
	"testing"

	"worksteal/internal/modelcheck"
)

// This file model-checks the session phase word (pool.go, serve.go,
// drain.go) and the holds of the run record on internal/modelcheck.
// The actors: a Submit (gate load, register, push, re-load,
// let go); two Drains (the CAS with the look at the registry and the read
// of the session's number — one critical section, as in Drain — then the
// wait for the run it saw there to end, which its deadline may cut short at
// any time, the read of how the run ended, and the stop it asks for); a
// Serve that stops at any time — its context may be cancelled, which covers
// the stop a Drain asks for — and starts once more; a worker
// that pops the submission and ends it; the submission's context; and a
// second Submit, which takes the first one's record once every holder has
// let it go. Checked on every path:
//
//   - the phase only moves along the diagram, and one Drain wins a session;
//   - a live handle is returned under serving only — none once a Drain's
//     CAS or the store of stopping has closed admission;
//   - a handle that was out and standing at a Drain's CAS is completed,
//     never aborted, if that Drain reports success;
//   - a Submit that returns an error never leaves a completed run;
//   - a Drain's stop lands in the session it drained or nowhere: never in
//     the next one, which a stop that took no session number may reach;
//   - every finish of the run, and every read of how it ended, is made by
//     a current holder of its record — so never on a record the second
//     Submit has taken;
//   - at quiescence no returned handle is left unfinished, the registry,
//     which every Drain to come waits on, is empty, and the record is let
//     go by every holder but the root scope of a swept carcass.

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

// The holders of the run record (run.holds), one bit each.
const (
	hSubmit uint8 = 1 << iota // the Submit, until it returns
	hRoot                     // the root scope, until it empties
	hWatch                    // the context watcher
	hDrain                    // the first Drain's look; the second's is hDrain << 1
	_
	hStop // endSession's look
)

type pmState struct {
	phase   uint32
	pc      [4]int8 // steps taken by: the Submit, the two Drains, Serve
	sess    int8    // sessions started so far (Pool.gen); the live one is the last
	workers bool    // the live session's workers exist
	// The submission: its record made, in the registry, its root in the
	// injector, its handle returned to the caller — or an error — its
	// outcome.
	made, reg, queued, handle bool
	out                       int8
	// Its context: the watcher is armed, the context cancelled.
	armed, cancelled bool
	// Per session (Serve runs twice): the Drains that won it, and whether
	// it was marked stopped — by a Drain's stop, or by endSession.
	wins    [3]int8
	stopped [3]bool
	// Per Drain: the session whose number its CAS read, and whether it
	// goes on to ask for the stop.
	gen  [2]int8
	asks [2]bool
	// Per Drain: whether its look found the run in the registry — the run
	// it then waits for — and whether a handle was out and standing at its
	// CAS.
	saw, covered [2]bool
	// The record: who holds it; whether endSession's look found the run;
	// whether a sweep discarded its root, whose count then never ends (as
	// it does not for a root pushed after the last sweep); and whether the
	// second Submit has taken it.
	holds                 uint8
	stopSaw, swept, taken bool
}

type phaseModel struct {
	// The negative controls: Submit returns right after its push; Submit
	// arms the cancellation before it registers (the order PR 22 fixed); a
	// Drain takes the end of the run it waited for as its completion; a
	// Submit that reads draining reports ErrDraining even for a run a worker
	// completed (the parent's branch); the Submit lets go at its push,
	// before its re-load; a look at the registry takes no hold; a Drain's
	// stop names no session, and stops whichever is live.
	noReload, armFirst, noOutcomeRead, rejectCompleted, letAtPush, lookWithoutHold, noGen bool
	// What the search came across, so the test can tell what it covered.
	accepted, selfRejected, lateAccepted, won, lost, okDrains, stoppedDrains, sweepAborts, cancelAborts, reuses, staleStops int
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

// touch is a finish of the run or a read of how it ended, made by holder
// by: it must hold the record.
func (s *pmState) touch(by uint8) error {
	if s.holds&by == 0 {
		return fmt.Errorf("holder %b touches the record, held by %b (taken by another Submit: %v)", by, s.holds, s.taken)
	}
	return nil
}

// finish ends the submission if nothing has yet: the claim of the run's
// end, in one step with the unregister and the completion word a Drain
// waits on — a caller that reads the outcome after its own finish reads
// the claim (run.outcome), not the word. A watcher still armed is
// stopped, and its hold goes with it.
func (s *pmState) finish(by uint8, out int8) error {
	if err := s.touch(by); err != nil {
		return err
	}
	if s.out == pmLive {
		s.out, s.reg = out, false
		if s.armed && !s.cancelled {
			s.armed, s.holds = false, s.holds&^hWatch
		}
	}
	return nil
}

// sweep is drainByRun: the root it finds it discards, aborting its run.
func (m *phaseModel) sweep(s *pmState) error {
	if !s.queued {
		return nil
	}
	if s.out == pmLive {
		m.sweepAborts++
	}
	s.queued, s.swept = false, true
	return s.finish(hRoot, pmStopped)
}

// step is one step of actor a: 0 the Submit (SubmitContext), 1 and 2 the
// Drains, 3 Serve — enter, startSession, open, and, whenever the search
// schedules it, the five steps of endSession — 4 a worker, 5 the Submit's
// context, and 6 the second Submit.
func (m *phaseModel) step(s pmState, a int) ([]pmState, error) {
	switch a {
	case 6: // newRun: the record every holder has let go
		if !s.made || s.holds != 0 || s.taken {
			return nil, nil
		}
		s.taken = true
		m.reuses++
		return []pmState{s}, nil
	case 5: // cancelled: the watcher aborts the submission, then lets go
		if !s.armed || s.cancelled {
			return nil, nil
		}
		if s.cancelled = true; s.out == pmLive {
			m.cancelAborts++
		}
		err := s.finish(hWatch, pmCancelled)
		s.armed, s.holds = false, s.holds&^hWatch
		return []pmState{s}, err
	case 4: // pop the root and run it — or discard it, its run aborted — and the root scope lets go
		if !s.workers || !s.queued {
			return nil, nil
		}
		s.queued = false
		err := s.finish(hRoot, pmCompleted)
		s.holds &^= hRoot
		return []pmState{s}, err
	}
	var err error
	hand := func() { // Submit returns the handle to its caller
		s.handle = true
		if err == nil && s.out == pmLive && s.phase != phaseServing {
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
		case 1, 2: // newRun, then register — whatever has happened to the run — and arm
			if *pc == 1 {
				s.made, s.holds = true, hSubmit|hRoot
			}
			if (*pc == 1) != m.armFirst {
				s.reg = true
			} else {
				s.armed, s.holds = true, s.holds|hWatch
			}
		case 3: // the push
			s.queued = true
			if m.letAtPush {
				s.holds &^= hSubmit
			}
			if m.noReload {
				hand()
				s.holds &^= hSubmit
				*pc = 4
			}
		case 4: // the re-load, then the let
			switch s.phase {
			case phaseServing:
				m.accepted++
				hand()
			case phaseDraining: // rejects itself, unless a worker completed the run first
				err = s.finish(hSubmit, pmRejected)
				if s.out != pmCompleted || m.rejectCompleted { // ErrDraining
					m.selfRejected++
					if s.out == pmCompleted && err == nil {
						err = fmt.Errorf("a Submit that returned ErrDraining left a completed run")
					}
				} else {
					m.lateAccepted++
					hand()
				}
			default: // stopped: a handle, already aborted
				err = s.finish(hSubmit, pmStopped)
				hand()
			}
			s.holds &^= hSubmit
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
			s.gen[d] = s.sess
			err = s.move(phaseDraining)
			s.saw[d], s.covered[d] = s.reg, s.handle && (s.out == pmLive || s.out == pmCompleted)
			if s.reg && !m.lookWithoutHold {
				s.holds |= hDrain << d
			}
			if s.wins[s.sess]++; s.wins[s.sess] > 1 {
				err = fmt.Errorf("two Drains won session %d", s.sess)
			}
		case 1: // the wait ends: the run it saw has ended, or the deadline cuts it short, promising nothing
			if s.saw[d] {
				err = s.touch(hDrain << d)
				s.holds &^= hDrain << d
			}
			if s.saw[d] && s.out == pmLive {
				s.asks[d] = true
				break
			}
			if s.saw[d] && s.out == pmStopped && !m.noOutcomeRead { // a stop ended the run: ErrNotServing
				m.stoppedDrains++
				break
			}
			m.okDrains++
			s.asks[d] = true
			if s.covered[d] && s.out != pmCompleted && s.out != pmCancelled {
				err = fmt.Errorf("a Drain reports success, and the handle that was out at its CAS ended %d", s.out)
			}
		case 2: // stopWith: a no-op unless the session it names is live and not yet stopped
			if !s.asks[d] {
				return nil, nil
			}
			s.asks[d] = false
			gen := s.gen[d]
			if m.noGen {
				gen = s.sess
			}
			if gen != s.sess || s.stopped[gen] {
				m.staleStops++
				break
			}
			if gen != s.gen[d] {
				err = fmt.Errorf("a Drain of session %d stopped session %d", s.gen[d], gen)
			}
			s.stopped[gen] = true
		default:
			return nil, nil
		}
	default:
		switch *pc {
		case 0:
			err = s.move(phaseBatch)
		case 1: // startSession: sweep, publish the record, fork
			err = m.sweep(&s)
			s.sess, s.workers = s.sess+1, true
		case 2:
			err = s.move(phaseServing)
		case 3: // mark the session stopped, and store stopping
			s.stopped[s.sess] = true
			err = s.move(phaseStopping)
		case 4: // the look at the registry
			if s.stopSaw = s.reg; s.reg && !m.lookWithoutHold {
				s.holds |= hStop
			}
		case 5: // abort what it found, and let go
			if s.stopSaw {
				err = s.finish(hStop, pmStopped)
				s.stopSaw, s.holds = false, s.holds&^hStop
			}
		case 6: // the tokens, join, sweep
			s.workers = false
			err = m.sweep(&s)
		case 7:
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

func (m *phaseModel) model() modelcheck.Model[pmState] {
	return modelcheck.Model[pmState]{Actors: 7, Step: m.step, Final: func(s pmState) error {
		if s.handle && s.out == pmLive {
			return fmt.Errorf("quiescent with the returned handle unfinished")
		}
		if s.reg {
			return fmt.Errorf("quiescent with the run, which ended %d, still in the registry", s.out)
		}
		if held := s.holds; held != 0 && !(held == hRoot && (s.swept || s.queued)) {
			return fmt.Errorf("quiescent with the record still held by %b", held)
		}
		return nil
	}}
}

func TestPhaseModelExhaustive(t *testing.T) {
	m := &phaseModel{}
	m.model().Verify(t, pmState{}, 43954, 359)
	if m.accepted == 0 || m.selfRejected == 0 || m.lateAccepted == 0 || m.won == 0 || m.lost == 0 || m.okDrains == 0 ||
		m.stoppedDrains == 0 || m.sweepAborts == 0 || m.cancelAborts == 0 || m.reuses == 0 || m.staleStops == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
	t.Logf("covered %+v", *m)
}

// The negative control: without the post-push re-load, a Submit whose gate
// read serving returns its handle whatever a Drain or a stop did since.
func TestPhaseModelCatchesMissingRecheck(t *testing.T) {
	(&phaseModel{noReload: true}).model().Refute(t, pmState{})
}

// The negative control of the order in SubmitContext: armed before it is
// registered, a run whose context cancels in between is finished — its
// unregister finds nothing — and then registered for good.
func TestPhaseModelCatchesArmBeforeRegister(t *testing.T) {
	(&phaseModel{armFirst: true}).model().Refute(t, pmState{})
}

// The negative control of the read in Drain's wait: a Drain that takes the
// end of the run it waited for as its completion reports success over a
// handle the stop aborted.
func TestPhaseModelCatchesDrainOverAbort(t *testing.T) {
	(&phaseModel{noOutcomeRead: true}).model().Refute(t, pmState{})
}

// The negative control of the draining branch's outcome: a Submit that
// reads draining after a worker has completed its run still reports
// ErrDraining, for a submission that ran.
func TestPhaseModelCatchesRejectOfCompletedRun(t *testing.T) {
	(&phaseModel{rejectCompleted: true}).model().Refute(t, pmState{})
}

// The negative control of the submitter's hold: let go at the push, the
// record may be completed and recycled before the re-load's finish.
func TestPhaseModelCatchesLetAtPush(t *testing.T) {
	(&phaseModel{letAtPush: true}).model().Refute(t, pmState{})
}

// The negative control of the looks' holds: a run a look found may be
// completed and let go before the look's finish or its read of the outcome.
func TestPhaseModelCatchesLookWithoutHold(t *testing.T) {
	(&phaseModel{lookWithoutHold: true}).model().Refute(t, pmState{})
}

// The negative control of the session's number: a Drain whose stop names no
// session, held up until its own session has ended and the next has
// started, stops that one.
func TestPhaseModelCatchesStaleDrainStop(t *testing.T) {
	(&phaseModel{noGen: true}).model().Refute(t, pmState{})
}
