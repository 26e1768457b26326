package sched

import (
	"fmt"
	"testing"
)

// This file model-checks Group's two-word wait (group.go: done, take, Wait,
// block) on the explorer of model_test.go, with the slot's install and
// close steps of future_model_test.go (mWord). One waiter owns the group
// through two generations: two members, Wait, then one more member spawned
// into the same Group, Wait again. Each member's done is an actor — the
// Add(-1) and, for the one that reads zero, take's load, its CAS and the
// close — so the done that emptied the first generation may still sit
// between its Add(-1) and its take while the second is waited for, and
// then takes that generation's channel. Checked on every path:
//
//   - no channel is closed twice;
//   - a wake meant for an earlier generation is harmless: the waiter finds
//     pending above zero and blocks again;
//   - at quiescence both Waits have returned: the waiter is never left
//     asleep with the group empty and nobody to close its channel.
//
// The negative control is block without its re-load of pending.

const gmMembers = 3 // two of the first generation, one of the second

// Waiter steps.
const (
	gwLoad     int8 = iota // Wait's loop: load pending
	gwInstLoad             // waitChan: load the slot
	gwInstCAS              // waitChan: install a new channel against nil
	gwRecheck              // block: re-load pending
	gwSleep                // blocked on the channel in hand
	gwFinished
)

// Member steps.
const (
	gdUnspawned int8 = iota
	gdAdd            // done: pending.Add(-1)
	gdTakeLoad       // take: load the slot
	gdTakeCAS        // take: empty the slot, if it still holds what was loaded
	gdClose          // close the channel taken
	gdFinished
)

type gmState struct {
	mWord
	pending int8
	gen     int8 // the generation the waiter waits for
	wpc     int8
	wch     int8 // the channel the waiter blocks on
	dpc     [gmMembers]int8
	dch     [gmMembers]int8 // the channel a member's take loaded
}

type groupModel struct {
	noRecheck bool // negative control: block sleeps without re-loading pending
	// What the search came across, so the test can tell what it covered.
	blocks, earlyWakes, lateTakes int
}

func (m *groupModel) initial() gmState {
	return gmState{pending: 2, gen: 1, dpc: [gmMembers]int8{gdAdd, gdAdd}}
}

func (m *groupModel) waiterStep(s gmState) ([]gmState, error) {
	switch s.wpc {
	case gwLoad:
		switch {
		case s.pending > 0:
			s.wpc = gwInstLoad
		case s.gen == 1: // Wait returns; the group is reused: Spawn's Add(1)
			s.gen, s.pending, s.dpc[2] = 2, 1, gdAdd
		default:
			s.wpc = gwFinished
		}
	case gwInstLoad:
		if s.wpc = gwInstCAS; s.word != 0 {
			s.wch, s.wpc = s.word, gwRecheck
		}
	case gwInstCAS:
		ch, err := s.install()
		if err != nil {
			return nil, err
		}
		if s.wpc = gwInstLoad; ch != 0 {
			s.wch, s.wpc = ch, gwRecheck
		}
	case gwRecheck:
		if s.wpc = gwSleep; s.pending == 0 && !m.noRecheck {
			s.wpc = gwLoad
		}
	case gwSleep:
		if s.closed[s.wch] == 0 {
			return nil, nil
		}
		m.blocks++
		if s.pending > 0 {
			m.earlyWakes++
		}
		s.wpc = gwLoad
	case gwFinished:
		return nil, nil
	}
	return []gmState{s}, nil
}

func (m *groupModel) memberStep(s gmState, d int) ([]gmState, error) {
	pc := &s.dpc[d]
	switch *pc {
	case gdAdd:
		s.pending--
		if *pc = gdFinished; s.pending == 0 {
			*pc = gdTakeLoad
		}
	case gdTakeLoad:
		if d < 2 && s.gen == 2 {
			m.lateTakes++
		}
		s.dch[d] = s.word
		if *pc = gdFinished; s.word != 0 {
			*pc = gdTakeCAS
		}
	case gdTakeCAS:
		if *pc = gdFinished; s.word == s.dch[d] {
			s.word, *pc = 0, gdClose
		}
	case gdClose:
		if err := s.close(s.dch[d]); err != nil {
			return nil, err
		}
		*pc = gdFinished
	default:
		return nil, nil
	}
	return []gmState{s}, nil
}

// explorer searches over the parties: 0 the waiter, d+1 member d.
func (m *groupModel) explorer() *explorer[gmState] {
	return &explorer[gmState]{
		actors: gmMembers + 1,
		step: func(s gmState, a int) ([]gmState, error) {
			if a == 0 {
				return m.waiterStep(s)
			}
			return m.memberStep(s, a-1)
		},
		final: func(s gmState) error {
			if s.wpc != gwFinished {
				return fmt.Errorf("the waiter is left at step %d of generation %d with pending %d and nobody to wake it: %+v", s.wpc, s.gen, s.pending, s)
			}
			return nil
		},
	}
}

func TestGroupModelExhaustive(t *testing.T) {
	m := &groupModel{}
	m.explorer().verify(t, m.initial())
	if m.blocks == 0 || m.earlyWakes == 0 || m.lateTakes == 0 {
		t.Fatalf("the search reached %d blocks, %d wakes meant for an earlier generation and %d takes delayed into the next; want some of each",
			m.blocks, m.earlyWakes, m.lateTakes)
	}
}

// The negative control: a block that does not re-load pending after its
// install sleeps through a done whose take loaded the empty slot.
func TestGroupModelCatchesBlockWithoutRecheck(t *testing.T) {
	m := &groupModel{noRecheck: true}
	m.explorer().refute(t, m.initial())
}
