package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"worksteal/internal/fault"
	"worksteal/internal/modelcheck"
)

// This file model-checks how a run record ends (serve.go: finish, outcome;
// pool.go: help) on internal/modelcheck, with the completion
// word's steps of future_model_test.go (mWord). The actors: a joiner of the
// submission, about to sleep on its worker's sleep (lifecycle.go) for a
// future that may or may not arrive; a Handle waiter, on the Handle's word;
// a completer, which can start only once the joiner has returned — a live
// joiner is a task of the submission, so the root scope cannot empty under
// it — and two aborters racing it for the claim of the run's end word: a
// stop's, and a draining Submit's re-check (SubmitContext), which reads the
// outcome once its finish returns to decide whether its submission was
// accepted. A finish that loses the claim returns at once; the winner's
// ends with a token for the joiner's sleep, one step here
// (sleep_model_test.go has its number). Checked on every path:
//
//   - no channel is closed twice, and at quiescence nobody is left blocked;
//   - a joiner woken by an abort's token reads a state that is not live;
//   - whoever reads the outcome reads the record the claim's winner
//     installed, a Handle waiter that reads an abort reads it after the
//     state — the gate every task start reads — has closed, and the
//     draining submitter accepts only a submission that completed.

const (
	rmJoiner int = iota
	rmWaiter
	rmCompleter
	rmAborter
	rmSubmitter
	rmActors
)

// The steps of a waiter — the joiner's block (rwState, rwBlock) and
// Handle.Wait share them — and of a finisher.
const (
	rwLoad    int8 = iota // waitChan: load the word
	rwCAS                 // waitChan: install a channel against nil
	rwBlock               // blocked on the channel in hand; the joiner in its sleep
	rwState               // joiner only: help's load of state, before a block
	rwOutcome             // the joiner: load state, read end; the waiter: load the word's record
	rwFinished
)

const (
	rfClaim   int8 = iota // end's CAS: a loser returns at once
	rfStore               // state.Store
	rfSwap                // the word's Swap of the record
	rfClose               // close the channel taken
	rfToken               // an abort: the token for the joiner's worker
	rfOutcome             // the submitter only: read the outcome, accept or reject
	rfFinished
)

type rmState struct {
	mWord
	end   int8 // run.end: 0 nil, or the finisher whose record the claim installed
	rec   int8 // the finisher whose record the Handle's word ended on
	state int8 // run.state: 0 live, or the aborter that stored its abort
	pc    [rmActors]int8
	ch    [rmActors]int8 // the channel a waiter blocks on, a finisher must close
	tok   bool           // a token is pending in the joiner's worker's sleep
	woken bool           // the joiner's block ended on that token
}

type runModel struct {
	swapFirst       bool   // the negative control: Swap, then state.Store
	tokenFirst      bool   // the negative control: the abort's token, then state.Store
	handleRead      bool   // the negative control: the submitter reads the Handle's word, not end
	blocks, unwound int    // what the search covered, with the rest
	ended           [3]int // claims won by the completer, the aborter, the submitter
	lost            int    // claims lost
	accepts         [2]int // the submitter's reads: rejected, accepted
}

// waiterStep moves the joiner or the Handle waiter one step.
func (m *runModel) waiterStep(s rmState, a int) ([]rmState, error) {
	pc := &s.pc[a]
	switch *pc {
	case rwState:
		switch {
		case s.state != 0:
			*pc = rwOutcome
		case s.woken:
			return nil, fmt.Errorf("the joiner was woken by the abort's token and reads a live state")
		default:
			*pc = rwBlock
		}
	case rwLoad:
		switch {
		case s.word == fmDone:
			*pc = rwOutcome
		case s.word != 0:
			s.ch[a], *pc = s.word, rwBlock
		default:
			*pc = rwCAS
		}
	case rwCAS:
		ch, err := s.install()
		if err != nil {
			return nil, err
		}
		s.ch[a], *pc = ch, rwBlock
		if ch == 0 {
			*pc = rwLoad
		}
	case rwBlock:
		if a == rmJoiner { // the future it joins may arrive, and Join returns; or a token
			arrived := s
			arrived.pc[a] = rwFinished
			next := []rmState{arrived}
			if !s.tok {
				return next, nil
			}
			m.blocks++
			s.tok, s.woken, *pc = false, true, rwState
			return append(next, s), nil
		}
		if s.closed[s.ch[a]] == 0 {
			return nil, nil
		}
		m.blocks++
		*pc = rwOutcome
	case rwOutcome:
		read := s.rec
		if a == rmJoiner { // panicAborted: outcome, after the load of state
			m.unwound++
			read = s.end
		}
		switch {
		case read != s.end:
			return nil, fmt.Errorf("actor %d reads the outcome of finisher %d, of a submission finisher %d ended", a, read, s.end)
		case a == rmJoiner && read == int8(rmCompleter):
			return nil, fmt.Errorf("the joiner unwinds from a submission that completed")
		case read != int8(rmCompleter) && s.state == 0:
			return nil, fmt.Errorf("actor %d reads the abort of finisher %d while the state is live", a, read)
		}
		*pc = rwFinished
	default:
		return nil, nil
	}
	return []rmState{s}, nil
}

// finisherStep moves the completer or an aborter one step through finish,
// and the submitter through its read of the outcome. The completer stores
// runLive: state 0.
func (m *runModel) finisherStep(s rmState, a int) ([]rmState, error) {
	pc, me := &s.pc[a], int8(a)
	switch *pc {
	case rfClaim:
		switch {
		case a == rmCompleter && s.pc[rmJoiner] != rwFinished:
			return nil, nil // not yet possible
		case s.end != 0:
			m.lost++
			*pc = rfOutcome
			return []rmState{s}, nil
		}
		s.end = me
		m.ended[a-rmCompleter]++
		if m.tokenFirst && a != rmCompleter {
			s.tok = true
		}
	case rfStore, rfSwap:
		if (*pc == rfStore) != m.swapFirst {
			if a != rmCompleter {
				s.state = me
			}
		} else {
			s.ch[a], s.rec = s.swapDone(), me
		}
	case rfClose:
		if s.ch[a] > 0 {
			if err := s.close(s.ch[a]); err != nil {
				return nil, err
			}
		}
	case rfToken:
		if a != rmCompleter && !m.tokenFirst { // a completion sends none
			s.tok = true
		}
	case rfOutcome:
		if a != rmSubmitter {
			break
		}
		read := s.end     // outcome: end, which the claim settled
		if m.handleRead { // Handle.Err: the word's record, or nil before it ends
			read = 0
			if s.word == fmDone {
				read = s.rec
			}
		}
		accepted := read == 0 || read == int8(rmCompleter)
		if accepted && s.end != int8(rmCompleter) {
			return nil, fmt.Errorf("the draining submitter accepts a submission that finisher %d aborted", s.end)
		}
		if accepted {
			m.accepts[1]++
		} else {
			m.accepts[0]++
		}
	default:
		return nil, nil
	}
	*pc++
	return []rmState{s}, nil
}

func (m *runModel) model() modelcheck.Model[rmState] {
	return modelcheck.Model[rmState]{
		Actors: rmActors,
		Step: func(s rmState, a int) ([]rmState, error) {
			if a <= rmWaiter {
				return m.waiterStep(s, a)
			}
			return m.finisherStep(s, a)
		},
		Final: func(s rmState) error {
			if s.pc != [rmActors]int8{rwFinished, rwFinished, rfFinished, rfFinished, rfFinished} {
				return fmt.Errorf("quiescent with the actors at steps %v", s.pc)
			}
			return nil
		},
	}
}

var rmInit = rmState{pc: [rmActors]int8{rwState, rwLoad}}

func TestRunModelExhaustive(t *testing.T) {
	m := &runModel{}
	m.model().Verify(t, rmInit, 1851, 10)
	if m.blocks == 0 || m.unwound == 0 || m.lost == 0 || m.accepts[0] == 0 || m.accepts[1] == 0 ||
		m.ended[0] == 0 || m.ended[1] == 0 || m.ended[2] == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// The negative control: with the word ended before the state is stored, a
// Handle.Wait woken through it reports an abort while tasks of the
// submission may still start.
func TestRunModelCatchesSwapBeforeState(t *testing.T) {
	(&runModel{swapFirst: true}).model().Refute(t, rmInit)
}

// The model's order of a finish's last steps is the code's: (*run).finish
// in serve.go stores the state, then ends the Handle's word, then sends the
// abort's tokens. Hold a cancelled submission's finisher between the state
// and the word, at sched.run.beforeWake: the state reads aborted, the
// Handle has not ended, and the worker running the root, blocked in it
// outside any sleep, has no token yet. The root first drops a token the
// Submit's own signal may have left it: that signal can find the worker
// still idle on its way out of its park, and nothing drains the channel.
func TestRunFinishStoresStateBeforeWake(t *testing.T) {
	defer fault.Reset()
	p := New(Config{Workers: 2})
	stop := startServing(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	var on atomic.Pointer[Worker]
	submitted, release := make(chan struct{}), make(chan struct{})
	h, err := p.SubmitContext(ctx, func(w *Worker) {
		<-submitted
		select {
		case <-w.sleep.ch:
		default:
		}
		on.Store(w)
		<-release
	})
	if err != nil {
		t.Fatalf("SubmitContext: %v", err)
	}
	close(submitted)
	waitFor(t, 10*time.Second, "the root to start", func() bool { return on.Load() != nil })
	r := on.Load().currentRun()
	fault.Enable(fpRunBeforeWake, fault.Rule{Action: fault.ActionSuspend, OneShot: true})
	cancel()
	waitFor(t, 10*time.Second, "the watcher held before the Handle's word", func() bool { return fault.Suspended(fpRunBeforeWake) == 1 })
	if st := r.state.Load(); st != runCancelled {
		t.Errorf("the run's state is %d with its finisher held before the Handle's word, want aborted (%d)", st, runCancelled)
	}
	select {
	case <-h.Done():
		t.Error("the Handle ended before its finisher stored the run's state")
	default:
	}
	if n := len(on.Load().sleep.ch); n != 0 {
		t.Errorf("the root's worker holds %d tokens before its run's Handle ended, want 0", n)
	}
	fault.Resume(fpRunBeforeWake)
	close(release)
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait = %v, want context.Canceled", err)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Errorf("Serve = %v", err)
	}
}

// The negative control of the abort's token: sent before the state is
// stored, it wakes a joiner that reads a live state and blocks again, with
// no token left to come.
func TestRunModelCatchesTokenBeforeState(t *testing.T) {
	(&runModel{tokenFirst: true}).model().Refute(t, rmInit)
}

// The negative control of the draining Submit's read: a lost claim returns
// before the winner ends the Handle's word, so a submitter that reads the
// word finds it nil, and accepts a submission the stop's abort then ends.
func TestRunModelCatchesHandleReadAfterLostClaim(t *testing.T) {
	(&runModel{handleRead: true}).model().Refute(t, rmInit)
}
