package sched

import (
	"fmt"
	"testing"
)

// This file model-checks how a run record ends (serve.go: finish, outcome;
// pool.go: help) on the explorer of model_test.go, with the completion
// word's steps of future_model_test.go (mWord). The actors: a joiner of the
// submission, about to block on a future that may or may not arrive; a
// Handle waiter; a completer, which can start only once the joiner has returned —
// a live joiner is a task of the submission, so the root scope cannot empty
// under it — and an aborter, racing the completer through finishOnce.
// Checked on every path:
//
//   - no channel is closed twice, and at quiescence nobody is left blocked;
//   - a joiner woken through the run's word reads a state that is not live;
//   - whoever reads the outcome reads the one finishOnce's winner wrote:
//     the read is ordered after the write.

const (
	rmJoiner int = iota
	rmWaiter
	rmCompleter
	rmAborter
	rmOnceDone int8 = -1
)

// The steps of a waiter — the joiner's block and Handle.Wait share them —
// and of a finisher.
const (
	rwLoad    int8 = iota // waitChan: load the word
	rwCAS                 // waitChan: install a channel against nil
	rwBlock               // blocked on the channel in hand
	rwState               // joiner only: help's load of state, after a block
	rwOutcome             // outcome: load state, read the cause
	rwFinished
)

const (
	rfOnce  int8 = iota // finishOnce: enter, wait for whoever is inside, or return
	rfWrite             // write the outcome
	rfStore             // state.Store
	rfSwap              // the word's Swap
	rfClose             // close the channel taken
	rfLeave             // finishOnce done
	rfFinished
)

type rmState struct {
	mWord
	state int8 // run.state: 0 live, or the finisher that stored its abort
	out   int8 // err and panicVal: the finisher that wrote them last
	once  int8 // finishOnce: 0 free, the finisher inside it, or rmOnceDone
	won   int8 // the finisher finishOnce let in
	pc    [4]int8
	ch    [4]int8 // the channel a waiter blocks on, a finisher must close
	woken bool    // the joiner's block ended through the run's word
}

type runModel struct {
	swapFirst       bool   // the negative control: Swap, then state.Store
	blocks, unwound int    // what the search covered, with ended
	ended           [2]int // by the completer, by the aborter
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
			return nil, fmt.Errorf("the joiner was woken through the run's word and reads a live state")
		default:
			*pc = rwLoad
		}
	case rwLoad:
		switch {
		case s.word == fmDone && a == rmJoiner: // closed already: block falls through
			s.woken, *pc = true, rwState
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
		var next []rmState
		if a == rmJoiner { // the future it joins may arrive: Join returns
			arrived := s
			arrived.pc[a] = rwFinished
			next = append(next, arrived)
		}
		if s.closed[s.ch[a]] == 0 {
			return next, nil
		}
		m.blocks++
		*pc = rwOutcome
		if a == rmJoiner {
			s.woken, *pc = true, rwState
		}
		return append(next, s), nil
	case rwOutcome: // state.Load, then the reads it orders
		if a == rmJoiner {
			m.unwound++
		}
		if read := min(s.state, s.out); read != s.won-int8(rmCompleter) {
			return nil, fmt.Errorf("actor %d reads outcome %d of a submission finisher %d ended", a, read, s.won)
		}
		*pc = rwFinished
	default:
		return nil, nil
	}
	return []rmState{s}, nil
}

// finisherStep moves the completer or the aborter one step through finish.
// The completer writes no cause and stores runLive: outcome 0.
func (m *runModel) finisherStep(s rmState, a int) ([]rmState, error) {
	pc, me := &s.pc[a], int8(a)
	switch *pc {
	case rfOnce:
		switch {
		case a == rmCompleter && s.pc[rmJoiner] != rwFinished, s.once > 0:
			return nil, nil // not yet possible; or Do waits for the one inside
		case s.once == rmOnceDone:
			*pc = rfFinished
			return []rmState{s}, nil
		}
		s.once, s.won = me, me
	case rfWrite:
		s.out = me - int8(rmCompleter)
	case rfStore, rfSwap:
		if (*pc == rfStore) != m.swapFirst {
			s.state = me - int8(rmCompleter)
		} else {
			s.ch[a] = s.swapDone()
		}
	case rfClose:
		if s.ch[a] > 0 {
			if err := s.close(s.ch[a]); err != nil {
				return nil, err
			}
		}
	case rfLeave:
		s.once = rmOnceDone
		m.ended[a-rmCompleter]++
	default:
		return nil, nil
	}
	*pc++
	return []rmState{s}, nil
}

func (m *runModel) explorer() *explorer[rmState] {
	return &explorer[rmState]{
		actors: 4,
		step: func(s rmState, a int) ([]rmState, error) {
			if a <= rmWaiter {
				return m.waiterStep(s, a)
			}
			return m.finisherStep(s, a)
		},
		final: func(s rmState) error {
			if s.pc != [4]int8{rwFinished, rwFinished, rfFinished, rfFinished} {
				return fmt.Errorf("quiescent with the actors at steps %v", s.pc)
			}
			return nil
		},
	}
}

func TestRunModelExhaustive(t *testing.T) {
	m := &runModel{}
	m.explorer().verify(t, rmState{})
	if m.blocks == 0 || m.unwound == 0 || m.ended[0] == 0 || m.ended[1] == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// The negative control: with the word ended before the state is stored, a
// joiner woken through it reads a live state and blocks on a word that will
// not wake it again, and a Handle.Wait reports an abort as a completion.
func TestRunModelCatchesSwapBeforeState(t *testing.T) {
	(&runModel{swapFirst: true}).explorer().refute(t, rmState{})
}
