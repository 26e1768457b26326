package sched

import (
	"fmt"
	"math/bits"
	"testing"

	"worksteal/internal/modelcheck"
)

// This file model-checks the injector's ring (injector.go: TryPush,
// TryPop) on internal/modelcheck: two producers and two consumers, two
// calls each, on a ring of two cells, every load, CAS and store a step, so
// that any party may stall at any step. Checked on every path, exactly
// once: a consumer takes a task no consumer took before, and at quiescence
// every accepted task was taken or is still in the ring, which holds as
// many as enq less deq. Today's ring does not keep its admission bound —
// no push refused while fewer than capacity submissions are live — and the
// control shows why: a consumer stalled between its claim and its release
// keeps its cell on last lap's seq, so a producer one lap on reads the ring
// as full. A ring that bounds the live submissions apart from its cells is
// to verify with that check on.

// The steps of a call: the index's load, the cell's seq load and the
// decision, the index's CAS, the cell's task — a producer's store, a
// consumer's load and nil store, which no other party touches once its
// claim is made — and the seq store that publishes the cell, or releases
// it to the producer one lap on.
const (
	imIndex int8 = iota
	imSeq
	imClaim
	imTask
	imPublish
)

const (
	imCells = 2 // the ring's capacity
	imCalls = 2 // the calls each party makes
)

type imState struct {
	enq, deq uint8
	seq      [imCells]uint8
	t        [imCells]uint8 // the task in the cell: 1 + 2*producer + its call, or 0
	// Per party — producers 0 and 1, consumers 2 and 3 — the step, the
	// position it loaded and the calls it has made.
	pc    [4]int8
	pos   [4]uint8
	calls [4]uint8
	// accepted and taken are bit sets of tasks: stored by the producer
	// that claimed their cell, and taken by a consumer.
	accepted, taken uint8
}

type injectorModel struct {
	admission bool // the control: a push refused while fewer than capacity are live is a violation
	// What the search came across, so the test can tell what it covered.
	refused, empty, lostClaims, reloads int
}

func (m *injectorModel) initial() imState {
	return imState{seq: [imCells]uint8{0, 1}}
}

func (m *injectorModel) step(s imState, a int) ([]imState, error) {
	if s.calls[a] == imCalls {
		return nil, nil
	}
	// want is the seq of pos's cell when it is the party's to claim:
	// free on the producer's lap, holding the task on the consumer's.
	producer, pos := a < 2, s.pos[a]
	index, want, i := &s.deq, pos+1, pos%imCells
	if producer {
		index, want = &s.enq, pos
	}
	switch s.pc[a] {
	case imIndex:
		s.pos[a], s.pc[a] = *index, imSeq
	case imSeq:
		switch seq := s.seq[i]; {
		case seq == want:
			s.pc[a] = imClaim
		case seq > want: // a lap ahead: reload
			m.reloads++
			s.pc[a] = imIndex
		case producer: // last lap's task: a refusal
			m.refused++
			if live := s.enq - s.deq; m.admission && pos == s.enq && live < imCells {
				return nil, fmt.Errorf("producer %d's push is refused with %d of %d submissions live: %+v", a, live, imCells, s)
			}
			s.pc[a], s.calls[a] = imIndex, s.calls[a]+1
		default: // empty, or reserved and not yet published
			m.empty++
			s.pc[a], s.calls[a] = imIndex, s.calls[a]+1
		}
	case imClaim:
		if *index != pos {
			m.lostClaims++
			s.pc[a] = imIndex
			break
		}
		*index, s.pc[a] = pos+1, imTask
	case imTask:
		if producer {
			task := uint8(1+2*a) + s.calls[a]
			s.t[i], s.accepted = task, s.accepted|1<<(task-1)
		} else if task := s.t[i]; task == 0 || s.taken&(1<<(task-1)) != 0 {
			return nil, fmt.Errorf("consumer %d takes task %d, which is not there or was taken before: %+v", a-2, task, s)
		} else {
			s.t[i], s.taken = 0, s.taken|1<<(task-1)
		}
		s.pc[a] = imPublish
	case imPublish:
		if s.seq[i] = pos + 1; !producer {
			s.seq[i] = pos + imCells
		}
		s.pc[a], s.calls[a] = imIndex, s.calls[a]+1
	}
	return []imState{s}, nil
}

func (m *injectorModel) model() modelcheck.Model[imState] {
	return modelcheck.Model[imState]{Actors: 4, Step: m.step, Final: func(s imState) error {
		left := s.accepted &^ s.taken
		inRing := uint8(0)
		for _, task := range s.t {
			if task != 0 {
				inRing |= 1 << (task - 1)
			}
		}
		if s.taken&^s.accepted != 0 || left != inRing || int(s.enq-s.deq) != bits.OnesCount8(inRing) {
			return fmt.Errorf("quiescent with tasks accepted %04b, taken %04b, in the ring %04b, and %d between deq and enq", s.accepted, s.taken, inRing, s.enq-s.deq)
		}
		return nil
	}}
}

func TestInjectorModelExhaustive(t *testing.T) {
	m := &injectorModel{}
	m.model().Verify(t, m.initial(), 92977, 302)
	if m.refused == 0 || m.empty == 0 || m.lostClaims == 0 || m.reloads == 0 {
		t.Fatalf("the search covered %+v; want some of each", *m)
	}
}

// Today's ring refuses a push below capacity: a consumer claims the first
// cell and stalls before its release, and a producer one lap on finds that
// cell still on last lap's seq with one submission live.
func TestInjectorModelCatchesStalledConsumer(t *testing.T) {
	m := &injectorModel{admission: true}
	m.model().Refute(t, m.initial())
}
