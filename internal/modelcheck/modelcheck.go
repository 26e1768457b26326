// Package modelcheck is the exhaustive interleaving search the repository's
// protocol models run on: internal/sched's *_model_test.go (the worker
// status word, scopes, the phase word, run records, futures, groups, sleeps
// and the injector's ring) and internal/sim's deque tests.
//
// A model is a comparable state and a few actors. Every atomic operation
// of the real protocol is one step of one actor, and the search takes every
// step of every actor from every state it reaches, so a property that holds
// in every state the search visits holds on every schedule.
//
// Verify is a depth-first search with sleep sets (Godefroid, "Partial-Order
// Methods for the Verification of Concurrent Systems", ch. 5): a model that
// declares each step's footprint lets the search skip a step already taken
// from an earlier state on the path when every step taken since commutes
// with it. Sleep sets prune transitions, never states — a state whose
// stored sleep set a later path does not cover is expanded again by the
// actors it left out — so the counts of states and of quiescent states are
// those of the full search, and Verify pins them: a model that drifted, or a
// footprint that left out a read its successors depend on, fails on the
// counts. So the counts a new footprint is pinned to are those of the
// model's search without one. A read that only a step's own check makes
// moves no count, which is why a footprint must name it too.
// Refute is a plain breadth-first search, so the schedule it reports is a
// shortest one.
package modelcheck

import (
	"fmt"
	"math/bits"
	"testing"
)

// MaxActors bounds Model.Actors: a sleep set is one bit per actor.
const MaxActors = 8

// KeyBits bounds a Model.Key: the search stores a key and a sleep set in
// one word.
const KeyBits = 55

// Model is a protocol to search.
type Model[S comparable] struct {
	Actors int
	// Step returns the states one step of actor a can move s to — none if
	// it cannot move, several if the step has a choice — or the violation
	// of a property that the step commits. A property of the state it
	// returns alone may be checked here too; one that reads s or the step
	// itself must read only variables in the step's footprint. The slice
	// may be one the next call reuses.
	Step func(s S, a int) ([]S, error)
	// Final checks a quiescent state: one no actor can leave.
	Final func(s S) error
	// Key, if set, maps each reachable state to a distinct value below
	// 1<<KeyBits (Packer builds one); the search then stores keys, not
	// states.
	Key func(s S) uint64
	// Footprint, if set, names the variables the step of actor a from s
	// reads and writes: its own program counter if another actor reads it,
	// and everything its enabling condition, its successors and its checks
	// read. A write that leaves its variable as it is in s may be declared
	// a read. Steps whose footprints do not conflict commute. Without it
	// every pair of steps conflicts and the search takes every transition.
	Footprint func(s S, a int) Footprint
}

// Footprint is a step's read and write sets over a model's variables, one
// bit each.
type Footprint struct{ Reads, Writes uint64 }

// everything is the footprint of a step of a model that declares none.
var everything = Footprint{^uint64(0), ^uint64(0)}

// commutes reports whether two steps with footprints f and g touch no
// variable one of them writes.
func (f Footprint) commutes(g Footprint) bool {
	return f.Writes&(g.Reads|g.Writes) == 0 && g.Writes&f.Reads == 0
}

// Counts is what a search visited.
type Counts struct {
	States, Quiescent, Transitions int
}

// Verify fails t unless the protocol holds on every schedule from init and
// the search visits exactly states states, quiescent of them quiescent.
func (m Model[S]) Verify(t testing.TB, init S, states, quiescent int) Counts {
	t.Helper()
	c, err := m.search(init)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states, %d quiescent, %d transitions", c.States, c.Quiescent, c.Transitions)
	if c.States != states || c.Quiescent != quiescent {
		t.Fatalf("the search reached %d states, %d quiescent; want %d, %d", c.States, c.Quiescent, states, quiescent)
	}
	return c
}

// Refute is the negative control: m is a model with its protocol broken on
// purpose, and the search must find a schedule that shows it, or a passing
// Verify of the model would mean little. It logs a shortest such schedule.
func (m Model[S]) Refute(t testing.TB, init S) {
	t.Helper()
	err := m.shortest(init)
	if err == nil {
		t.Fatal("the broken protocol passed every schedule")
	}
	t.Log(err)
}

// violation is a property's failure with the schedule — the actor of each
// step — that led to it.
func violation(err error, schedule []int) error {
	return fmt.Errorf("%v (schedule %v)", err, schedule)
}

// visitor returns the search's store of visited states: visit(s, sleep)
// reports whether s was visited before and the sleep set stored with it,
// and stores sleep for a new state, or for a visited one the actors asleep
// on both visits. It keys a state by m.Key if the model has one.
func (m Model[S]) visitor() (visit func(s S, sleep uint8) (had uint8, found bool)) {
	if m.Actors < 1 || m.Actors > MaxActors {
		panic(fmt.Sprintf("modelcheck: %d actors, want 1 to %d", m.Actors, MaxActors))
	}
	if m.Key == nil {
		seen := map[S]uint8{}
		return func(s S, sleep uint8) (uint8, bool) {
			had, found := seen[s]
			switch {
			case !found:
				seen[s] = sleep
			case had&^sleep != 0:
				seen[s] = had & sleep
			}
			return had, found
		}
	}
	var seen table
	return func(s S, sleep uint8) (uint8, bool) {
		k := m.Key(s)
		if k >= 1<<KeyBits {
			panic(fmt.Sprintf("modelcheck: key %#x of %+v is wider than %d bits", k, s, KeyBits))
		}
		return seen.visit(k, sleep)
	}
}

// frame is a state on the search's path.
type frame[S any] struct {
	s S
	// sleep holds the actors not to take from s: asleep when the path came
	// in, and those taken from s since; fp holds their footprints.
	sleep uint8
	todo  uint8 // the actors still to take from s
	first bool  // the search's first visit of s
	a     int8  // the actor whose successors the search is in, or -1
	// a's successors are succ[base:end], and succ[next] the first one still
	// to visit.
	base, next, end int
	afp             Footprint
	fp              [MaxActors]Footprint
}

// search is Verify's depth-first search. It stores each visited state with
// the sleep set of its visits: a later visit expands the state only by the
// actors every earlier visit left asleep and it does not, and the stored
// set shrinks to the actors asleep on every visit.
func (m Model[S]) search(init S) (Counts, error) {
	visit := m.visitor()
	all := uint8(1<<m.Actors - 1)
	visit(init, 0)
	c := Counts{States: 1}
	stack := []frame[S]{{s: init, todo: all, first: true, a: -1}}
	var succ []S
	for len(stack) > 0 {
		top := len(stack) - 1
		f := &stack[top]
		if f.next < f.end {
			n := &succ[f.next]
			f.next++
			c.Transitions++
			var sleep uint8
			for b := f.sleep; b != 0; b &= b - 1 {
				if i := bits.TrailingZeros8(b); f.fp[i].commutes(f.afp) {
					sleep |= 1 << i
				}
			}
			todo, first := all&^sleep, true
			if had, found := visit(*n, sleep); found {
				if had&^sleep == 0 {
					continue // a visit took every step this one would
				}
				todo, first = had&^sleep, false
			} else {
				c.States++
			}
			stack = push(stack, *n, len(succ))
			g := &stack[top+1]
			g.sleep, g.todo, g.first = sleep, todo, first
			for b := sleep; b != 0; b &= b - 1 {
				i := bits.TrailingZeros8(b)
				g.fp[i] = stack[top].fp[i]
			}
			continue
		}
		if f.a >= 0 {
			f.sleep |= 1 << f.a
			f.fp[f.a] = f.afp
			f.a = -1
			succ = succ[:f.base]
		}
		if f.todo == 0 {
			// An actor asleep here is enabled: a step that commutes with it
			// leaves its enabling condition as it was.
			if f.first && f.sleep == 0 {
				c.Quiescent++
				if err := m.Final(f.s); err != nil {
					return c, violation(err, trail(stack[:top], -1))
				}
			}
			stack = stack[:top]
			continue
		}
		a := bits.TrailingZeros8(f.todo)
		f.todo &= f.todo - 1
		next, err := m.Step(f.s, a)
		if err != nil {
			return c, violation(err, trail(stack[:top], a))
		}
		if len(next) == 0 {
			continue
		}
		succ = append(succ, next...)
		f.a, f.next, f.end, f.afp = int8(a), f.base, len(succ), everything
		if m.Footprint != nil {
			f.afp = m.Footprint(f.s, a)
		}
	}
	return c, nil
}

// push returns stack with a frame for s, whose successors will go from
// succ[base] on, on top. The frame is reused as it stands: the caller sets
// its sleep set, and fp is read only where that has a bit.
func push[S any](stack []frame[S], s S, base int) []frame[S] {
	if len(stack) < cap(stack) {
		stack = stack[:len(stack)+1]
	} else {
		stack = append(stack, frame[S]{})
	}
	f := &stack[len(stack)-1]
	f.s, f.a, f.base, f.next, f.end = s, -1, base, base, base
	return stack
}

// trail is the schedule that led to the top of path, then actor a if a is
// not -1.
func trail[S any](path []frame[S], a int) []int {
	var sched []int
	for _, f := range path {
		sched = append(sched, int(f.a))
	}
	if a >= 0 {
		sched = append(sched, a)
	}
	return sched
}

// shortest is Refute's breadth-first search: the first violation it meets
// ends a shortest schedule that has one.
func (m Model[S]) shortest(init S) error {
	type node struct {
		s      S
		parent int32
		a      int8
	}
	visit := m.visitor()
	visit(init, 0)
	nodes := []node{{init, -1, -1}}
	trail := func(i, a int) []int {
		var sched []int
		if a >= 0 {
			sched = append(sched, a)
		}
		for ; nodes[i].parent >= 0; i = int(nodes[i].parent) {
			sched = append(sched, int(nodes[i].a))
		}
		for l, r := 0, len(sched)-1; l < r; l, r = l+1, r-1 {
			sched[l], sched[r] = sched[r], sched[l]
		}
		return sched
	}
	for i := 0; i < len(nodes); i++ {
		moved := false
		for a := range m.Actors {
			next, err := m.Step(nodes[i].s, a)
			if err != nil {
				return violation(err, trail(i, a))
			}
			for _, n := range next {
				moved = true
				if _, found := visit(n, 0); !found {
					nodes = append(nodes, node{n, int32(i), int8(a)})
				}
			}
		}
		if !moved {
			if err := m.Final(nodes[i].s); err != nil {
				return violation(err, trail(i, -1))
			}
		}
	}
	return nil
}

// table is the store of visited keys of a model with a Key: an
// open-addressing hash table of words that each hold a key plus one above
// the key's sleep set.
type table struct {
	slots []uint64
	n     int
	shift uint // 64 less log2 len(slots)
}

func (t *table) index(k uint64) int { return int(k * 0x9e3779b97f4a7c15 >> t.shift) }

// visit is the visitor's visit for key k.
func (t *table) visit(k uint64, sleep uint8) (had uint8, found bool) {
	if 5*(t.n+1) > 4*len(t.slots) {
		t.grow()
	}
	w := (k + 1) << 8
	mask := len(t.slots) - 1
	for i := t.index(k); ; i = (i + 1) & mask {
		switch e := t.slots[i]; {
		case e == 0:
			t.slots[i] = w | uint64(sleep)
			t.n++
			return 0, false
		case e&^0xff == w:
			had = uint8(e)
			t.slots[i] = w | uint64(had&sleep)
			return had, true
		}
	}
}

func (t *table) grow() {
	old := t.slots
	size := max(2*len(old), 1<<10)
	t.slots, t.shift = make([]uint64, size), uint(64-bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := t.index(e>>8 - 1)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// Packer builds a Model.Key: each Put appends a field of a given width,
// and Key panics if a value did not fit its field or the fields are wider
// than KeyBits, rather than let two states share a key. It is a value, so
// that a key function keeps it in registers: p = p.Put(v, width).
type Packer struct {
	k, over uint64
	n       int
}

// Put returns p with v, which must be in [0, 1<<width), appended.
func (p Packer) Put(v, width int) Packer {
	return Packer{p.k<<width | uint64(v), p.over | uint64(v)>>width, p.n + width}
}

// Bool returns p with b appended as one bit.
func (p Packer) Bool(b bool) Packer {
	v := 0
	if b {
		v = 1
	}
	return p.Put(v, 1)
}

// Key is the key p holds.
func (p Packer) Key() uint64 {
	if p.over != 0 || p.n > KeyBits {
		panic(fmt.Sprintf("modelcheck: a field overflowed (%#x) or the key is %d bits wide, over %d", p.over, p.n, KeyBits))
	}
	return p.k
}
