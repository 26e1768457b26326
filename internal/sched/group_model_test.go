package sched

import (
	"fmt"
	"testing"

	"worksteal/internal/modelcheck"
)

// This file model-checks a Group's wait (group.go: groupRec's done and
// block, Group.Wait) on internal/modelcheck, over a recycled
// record. Two generations run on one record: the first is group A's — two
// members, and A's Wait, which ends the generation and puts the record on
// its worker's list — and the second is group B's, whose first Spawn takes
// the record back off that list, with one member and B's Wait. Both Waits
// run on one worker, so the slot holds the same worker either way — the
// case in which a late CAS cannot tell the generations apart — and its
// sleep's numbers run on from A's Wait to B's. A Wait that blocks numbers
// a sleep, installs its worker in the slot, re-loads pending, takes
// tokens — its own ends the sleep as a wake, any other makes it look at
// pending and at the slot, and end if the group has emptied or its worker
// is no longer in the slot — and takes its worker back out of the slot (a
// store of nil) when its sleep ends. Each member's done is an actor: the
// Add(-1) and, for the one that reads zero, the load of the slot, the
// load of the sleep's number, the CAS that empties the slot and the token;
// the channel holds one token and drops a send that finds it full. So the
// done that emptied the first generation may still sit before its load of
// the slot while B waits, and then takes B's install, with A's number or
// B's. Checked on every path:
//
//   - no record is on a free list while its pending is above zero;
//   - no sleep is woken by a slot its waiter has left: a token ends a sleep
//     as a wake only if the CAS that sent it took that sleep's install;
//   - a take-back never clears another sleep's install;
//   - at quiescence both Waits have returned: no waiter is left asleep.
//
// The negative controls: a block without its re-load of pending sleeps
// through a done that loaded the slot empty; a look that reads pending
// alone sleeps on after A's late done took B's install with A's number,
// and B's member finds the slot empty; a Wait that lists the record
// as soon as its sleep ends, before it loads pending as zero, lists B's
// record under its member when A's late done wakes B; and a waiter that
// skips the take-back leaves A's install in the slot, which A's late done
// takes with the number of B's sleep.

const gmMembers = 3 // two of the first generation, one of the second

// Waiter steps.
const (
	gwLoad     int8 = iota // Wait's loop: load pending
	gwBegin                // block: number the sleep (sleep.begin)
	gwInstall              // block: store the worker in the slot
	gwRecheck              // block: re-load pending
	gwSleep                // blocked on the token channel
	gwLook                 // a token not this sleep's: the re-check of pending and the slot
	gwTakeBack             // block: store nil in the slot
	gwFree                 // Wait: list the record, ending the generation
	gwFinished
)

// Member steps.
const (
	gdUnspawned int8 = iota
	gdAdd            // done: pending.Add(-1)
	gdLoad           // done: load the slot
	gdNumber         // done: load the number of the sleep of the worker in it
	gdCAS            // done: empty the slot, if it still holds the worker
	gdSend           // sleep.wake: the token, or nothing on a full channel
	gdFinished
)

type gmState struct {
	pending int8
	gen     int8 // the generation the waiter waits for: 1 A's, 2 B's
	listed  bool // the record is on the worker's free list
	wpc     int8
	n       int8 // the number of the waiter's current sleep
	ended   bool // the current sleep ended on a token (a wake or a look)
	// slot is 0 when the slot is nil, else the number of the sleep whose
	// install put the worker there: the slot holds the worker either way,
	// and the number is the model's record of whose install it is.
	slot   int8
	tok    bool // a token is in the channel
	tokN   int8 // ... carrying this number
	tokFor int8 // ... sent by a done whose CAS took this sleep's install
	dpc    [gmMembers]int8
	dn     [gmMembers]int8 // the number a member loaded
	dfor   [gmMembers]int8 // the install its CAS took
}

type groupModel struct {
	// The negative controls: block sleeps without re-loading pending;
	// a look ends the sleep only on pending, not on an empty slot; Wait
	// lists the record as soon as a sleep ends on a token; block skips the
	// take-back.
	noRecheck, staySlotless, earlyFree, noTakeBack bool
	// What the search came across, so the test can tell what it covered.
	wakes, earlyWakes, looks, lateTakes, dropped int
}

func (m *groupModel) initial() gmState {
	return gmState{pending: 2, gen: 1, dpc: [gmMembers]int8{gdAdd, gdAdd}}
}

func (m *groupModel) waiterStep(s gmState) ([]gmState, error) {
	switch s.wpc {
	case gwLoad:
		s.wpc = gwBegin
		if s.pending == 0 {
			s.wpc = gwFree
		}
	case gwBegin:
		s.n++
		s.ended, s.wpc = false, gwInstall
	case gwInstall:
		s.slot, s.wpc = s.n, gwRecheck
	case gwRecheck:
		s.wpc = gwSleep
		if s.pending == 0 && !m.noRecheck {
			s.wpc = gwTakeBack
		}
	case gwSleep:
		if !s.tok {
			return nil, nil
		}
		s.tok, s.ended = false, true
		if s.tokN != s.n {
			m.looks++
			s.wpc = gwLook
			break
		}
		if s.tokFor != s.n {
			return nil, fmt.Errorf("sleep %d ends as a wake on a token whose CAS took sleep %d's install: %+v", s.n, s.tokFor, s)
		}
		m.wakes++
		if s.pending > 0 {
			m.earlyWakes++
		}
		s.wpc = gwTakeBack
	case gwLook:
		s.wpc = gwSleep
		if s.pending == 0 || s.slot == 0 && !m.staySlotless {
			s.wpc = gwTakeBack
		}
	case gwTakeBack:
		s.wpc = gwLoad
		if m.earlyFree && s.ended {
			s.wpc = gwFree
		}
		if m.noTakeBack {
			break
		}
		if s.slot != 0 && s.slot != s.n {
			return nil, fmt.Errorf("sleep %d's take-back clears sleep %d's install: %+v", s.n, s.slot, s)
		}
		s.slot = 0
	case gwFree:
		if s.pending > 0 {
			return nil, fmt.Errorf("generation %d's record is listed with %d members pending: %+v", s.gen, s.pending, s)
		}
		s.listed, s.wpc = true, gwFinished
		if s.gen == 1 { // B's first Spawn takes the record, and Adds
			s.listed, s.gen, s.pending, s.dpc[2], s.wpc = false, 2, 1, gdAdd, gwLoad
		}
	default:
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
			*pc = gdLoad
		}
	case gdLoad:
		if *pc = gdFinished; s.slot != 0 {
			*pc = gdNumber
		}
	case gdNumber:
		s.dn[d], *pc = s.n, gdCAS
	case gdCAS:
		if *pc = gdFinished; s.slot != 0 {
			if d < 2 && s.gen == 2 {
				m.lateTakes++
			}
			s.dfor[d], s.slot, *pc = s.slot, 0, gdSend
		}
	case gdSend:
		*pc = gdFinished
		if s.tok {
			m.dropped++
			break
		}
		s.tok, s.tokN, s.tokFor = true, s.dn[d], s.dfor[d]
	default:
		return nil, nil
	}
	return []gmState{s}, nil
}

// model searches over the parties: 0 the waiter, d+1 member d.
func (m *groupModel) model() modelcheck.Model[gmState] {
	return modelcheck.Model[gmState]{
		Actors: gmMembers + 1,
		Step: func(s gmState, a int) ([]gmState, error) {
			var next []gmState
			var err error
			if a == 0 {
				next, err = m.waiterStep(s)
			} else {
				next, err = m.memberStep(s, a-1)
			}
			for _, n := range next {
				if n.listed && n.pending > 0 {
					return nil, fmt.Errorf("a listed record has %d members pending: %+v", n.pending, n)
				}
			}
			return next, err
		},
		Final: func(s gmState) error {
			if s.wpc != gwFinished {
				return fmt.Errorf("the waiter is left at step %d of generation %d with pending %d and nobody to wake it: %+v", s.wpc, s.gen, s.pending, s)
			}
			return nil
		},
	}
}

func TestGroupModelExhaustive(t *testing.T) {
	m := &groupModel{}
	m.model().Verify(t, m.initial(), 2265, 97)
	if m.wakes == 0 || m.earlyWakes == 0 || m.looks == 0 || m.lateTakes == 0 || m.dropped == 0 {
		t.Fatalf("the search reached %d wakes, %d of them early, %d looks on another sleep's token, %d takes delayed into the next generation and %d dropped tokens; want some of each",
			m.wakes, m.earlyWakes, m.looks, m.lateTakes, m.dropped)
	}
}

// The negative control: a block that does not re-load pending after its
// install sleeps through a done that loaded the slot empty.
func TestGroupModelCatchesBlockWithoutRecheck(t *testing.T) {
	m := &groupModel{noRecheck: true}
	m.model().Refute(t, m.initial())
}

// A sleep that looks only at pending on another sleep's token sleeps on
// after A's late done took B's install with A's number: B's member then
// finds the slot empty, and nothing wakes B.
func TestGroupModelCatchesLookWithoutSlot(t *testing.T) {
	m := &groupModel{staySlotless: true}
	m.model().Refute(t, m.initial())
}

// A Wait that lists the record as soon as its sleep ends lists B's record
// with B's member pending when A's late done wakes B's sleep.
func TestGroupModelCatchesFreeOnWake(t *testing.T) {
	m := &groupModel{earlyFree: true}
	m.model().Refute(t, m.initial())
}

// A waiter that leaves its worker in the slot lets A's late done take A's
// install with the number of B's sleep, and wake B through a slot A left.
func TestGroupModelCatchesNoTakeBack(t *testing.T) {
	m := &groupModel{noTakeBack: true}
	m.model().Refute(t, m.initial())
}
