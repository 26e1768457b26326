package modelcheck

import (
	"errors"
	"strings"
	"testing"
)

// counters is a toy model: actor a counts its own word up to 2, and the
// last actor, if shared, adds its steps to actor 0's word as well.
type counters struct {
	c      [3]int8
	shared bool
}

func countersModel(actors int, footprints bool) Model[counters] {
	m := Model[counters]{
		Actors: actors,
		Step: func(s counters, a int) ([]counters, error) {
			if s.c[a] == 2 {
				return nil, nil
			}
			s.c[a]++
			if s.shared && a == actors-1 && s.c[0] < 2 {
				s.c[0]++
			}
			return []counters{s}, nil
		},
		Final: func(s counters) error { return nil },
	}
	if footprints {
		m.Footprint = func(s counters, a int) Footprint {
			f := Footprint{Writes: 1 << a}
			if s.shared && a == actors-1 {
				f.Writes |= 1
			}
			return f
		}
	}
	return m
}

// Sleep sets reach every state of a product of independent counters over
// fewer transitions than the full search, and the keyed search counts what
// the search that stores states counts.
func TestVerifyPrunesTransitionsNotStates(t *testing.T) {
	for _, shared := range []bool{false, true} {
		full, err := countersModel(3, false).search(counters{shared: shared})
		if err != nil {
			t.Fatal(err)
		}
		states := full.States
		if !shared && states != 27 {
			t.Fatalf("%d states, want 3^3", states)
		}
		reduced := countersModel(3, true).Verify(t, counters{shared: shared}, states, 1)
		if reduced.Transitions >= full.Transitions {
			t.Errorf("shared=%v: %d transitions with footprints, %d without; want fewer", shared, reduced.Transitions, full.Transitions)
		}
		keyed := countersModel(3, true)
		keyed.Key = func(s counters) uint64 {
			var p Packer
			return p.Put(int(s.c[0]), 2).Put(int(s.c[1]), 2).Put(int(s.c[2]), 2).Bool(s.shared).Key()
		}
		if c := keyed.Verify(t, counters{shared: shared}, states, 1); c != reduced {
			t.Errorf("shared=%v: the keyed search counted %+v, the stored one %+v", shared, c, reduced)
		}
	}
}

// spinState is a model that sleep sets with a plain set of visited states
// get wrong (found by a random search over such programs, then shrunk):
// three actors run two steps each on three bits, a step that sets a bit to
// 0 or 1 (a choice), or one that loads a bit and goes back to the first
// step on a given value. Bit 1 is never set, so actor 1 never finishes.
// Keeping the sleep set of a state's first visit loses 4 of the 48 states;
// Verify reaches them because a later visit that finds an actor awake that
// the first found asleep expands the state by that actor.
type spinState struct{ pc, bit [3]int8 }

var spinProgs = [3][2]struct {
	choose   bool
	bit, ret int8 // the bit, and the value a load goes back on
}{
	{{false, 2, 0}, {true, 0, 0}},
	{{true, 2, 0}, {false, 1, 0}},
	{{true, 2, 0}, {false, 0, 1}},
}

func spinModel(footprints bool) Model[spinState] {
	m := Model[spinState]{
		Actors: 3,
		Step: func(s spinState, a int) ([]spinState, error) {
			if s.pc[a] == 2 {
				return nil, nil
			}
			op := spinProgs[a][s.pc[a]]
			s.pc[a]++
			if op.choose {
				t := s
				s.bit[op.bit], t.bit[op.bit] = 0, 1
				return []spinState{s, t}, nil
			}
			if s.bit[op.bit] == op.ret {
				s.pc[a] = 0
			}
			return []spinState{s}, nil
		},
		Final: func(spinState) error { return nil },
	}
	if footprints {
		m.Footprint = func(s spinState, a int) Footprint {
			op := spinProgs[a][s.pc[a]]
			if op.choose {
				return Footprint{Writes: 1 << op.bit}
			}
			return Footprint{Reads: 1 << op.bit}
		}
	}
	return m
}

func TestVerifyExpandsWokenActors(t *testing.T) {
	full, err := spinModel(false).search(spinState{})
	if err != nil || full.States != 48 {
		t.Fatalf("the full search: %+v, %v; want 48 states", full, err)
	}
	if c := spinModel(true).Verify(t, spinState{}, 48, 0); c.Transitions >= full.Transitions {
		t.Errorf("%d transitions with footprints, %d without; want fewer", c.Transitions, full.Transitions)
	}
}

// Refute reports a shortest schedule: the depth-first order would reach
// the bad state through actor 0's two steps first.
func TestRefuteReportsShortestSchedule(t *testing.T) {
	m := countersModel(2, true)
	m.Step = func(s counters, a int) ([]counters, error) {
		if s.c[a] == 2 {
			return nil, nil
		}
		if s.c[0]+s.c[1] == 1 && s.c[1] == 1 {
			return nil, errors.New("bad")
		}
		s.c[a]++
		return []counters{s}, nil
	}
	if err := m.shortest(counters{}); err == nil || !strings.Contains(err.Error(), "(schedule [1 0])") {
		t.Fatalf("got %v, want the schedule [1 0]", err)
	}
	m.Final = func(s counters) error { return errors.New("quiescent") }
	m.Step = func(s counters, a int) ([]counters, error) { return nil, nil }
	if err := m.shortest(counters{}); err == nil || !strings.Contains(err.Error(), "(schedule [])") {
		t.Fatalf("got %v, want the empty schedule", err)
	}
}

func TestPackerRefusesOverflow(t *testing.T) {
	for name, p := range map[string]Packer{
		"field":    Packer{}.Put(4, 2),
		"negative": Packer{}.Put(-1, 8),
		"width":    Packer{}.Put(0, 40).Put(0, 16),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Key did not panic", name)
				}
			}()
			p.Key()
		}()
	}
	if k := (Packer{}).Put(3, 2).Bool(true).Put(0, 52).Key(); k != 7<<52 {
		t.Errorf("key %#x, want %#x", k, uint64(7)<<52)
	}
}
