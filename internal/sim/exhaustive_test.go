package sim

import (
	"fmt"
	"testing"

	"worksteal/internal/dag"
	"worksteal/internal/modelcheck"
)

// This file model-checks the deque implementation by exhaustive
// interleaving enumeration (internal/modelcheck) — the executable analogue
// of the paper's companion correctness proof (Blumofe, Plaxton and Ray,
// "Verification of a concurrent deque implementation", UT TR-99-11).
// Because the simulator's deque operations are explicit state machines, one
// instruction per step, the search takes every interleaving of concurrent
// operations on small initial deques and checks the relaxed-semantics
// contract at the end of each:
//
//   - no node is returned by two different operations (no duplication);
//   - every node is either returned by exactly one operation or still in
//     the deque afterwards (no loss);
//   - the owner's popBottom returns NIL only if the deque was empty at some
//     point or a thief took the last item (checked as: never with more
//     items than thieves);
//   - thieves alone never take more items than there are, and on a
//     non-empty deque at least one of them succeeds (a CAS only fails
//     because another succeeded).

// dqState is the deque and the operations in flight, by value: each op is
// a pushBottomOp, popBottomOp or popTopOp with no deque bound, or nil once
// it has returned its result.
type dqState struct {
	age     Age
	bot     uint32
	deq     [4]dag.NodeID
	ops     [3]any
	results [3]dag.NodeID
}

// step executes op i's next instruction on s's deque.
func (s dqState) step(i int) []dqState {
	if s.ops[i] == nil {
		return nil
	}
	d := &abpDeque{age: s.age, bot: s.bot, deq: s.deq[:], tagMask: ^uint32(0)}
	var done bool
	var res dag.NodeID
	switch o := s.ops[i].(type) {
	case pushBottomOp:
		o.d = d
		done, res = o.step(), o.result()
		o.d = nil
		s.ops[i] = o
	case popBottomOp:
		o.d = d
		done, res = o.step(), o.result()
		o.d = nil
		s.ops[i] = o
	case popTopOp:
		o.d = d
		done, res = o.step(), o.result()
		o.d = nil
		s.ops[i] = o
	}
	if done {
		s.ops[i], s.results[i] = nil, res
	}
	s.age, s.bot = d.age, d.bot
	return []dqState{s}
}

// deque is s's deque, for its snapshot.
func (s dqState) deque() *abpDeque {
	return &abpDeque{age: s.age, bot: s.bot, deq: s.deq[:]}
}

// dequeModel searches every interleaving of ops on a deque holding initial
// (initial[0] at the top), checking the outcome of each with check, after
// the no-loss and no-duplication checks.
func dequeModel(initial, pushed []dag.NodeID, ops []any, check func(results []dag.NodeID) error) (modelcheck.Model[dqState], dqState) {
	d := newABPDeque(len(dqState{}.deq), 32)
	for _, v := range initial {
		o := d.startPushBottom(0, v)
		for !o.step() {
		}
	}
	init := dqState{age: d.age, bot: d.bot}
	copy(init.deq[:], d.deq)
	copy(init.ops[:], ops)
	return modelcheck.Model[dqState]{
		Actors: len(ops),
		Step:   func(s dqState, a int) ([]dqState, error) { return s.step(a), nil },
		Final: func(s dqState) error {
			results := s.results[:len(ops)]
			if err := checkOutcome(append(append([]dag.NodeID(nil), initial...), pushed...), s.deque().snapshot(), results); err != nil {
				return err
			}
			return check(results)
		},
	}, init
}

// checkOutcome verifies no-duplication and no-loss for a finished
// interleaving: the nodes all = returned items (each at most once) + items
// remaining in the deque.
func checkOutcome(all, snapshot, results []dag.NodeID) error {
	n := len(snapshot)
	returned := map[dag.NodeID]int{}
	for _, r := range results {
		if r != dag.None {
			returned[r]++
			n++
		}
	}
	inDeque := map[dag.NodeID]int{}
	for _, v := range snapshot {
		inDeque[v]++
	}
	if n != len(all) {
		return fmt.Errorf("%d nodes returned or in the deque, want %d; results=%v snapshot=%v", n, len(all), results, snapshot)
	}
	for _, v := range all {
		if returned[v]+inDeque[v] != 1 {
			return fmt.Errorf("node %d accounted %d times (returned %d, in deque %d); results=%v snapshot=%v",
				v, returned[v]+inDeque[v], returned[v], inDeque[v], results, snapshot)
		}
	}
	return nil
}

func nodes(n int) []dag.NodeID {
	initial := make([]dag.NodeID, n)
	for i := range initial {
		initial[i] = dag.NodeID(i + 1)
	}
	return initial
}

// TestExhaustivePopBottomVsThieves searches the owner's popBottom against
// one and two concurrent popTops, over initial deque sizes 0..3.
func TestExhaustivePopBottomVsThieves(t *testing.T) {
	for _, tc := range []struct{ size, thieves, states, quiescent int }{
		{0, 1, 6, 1}, {0, 2, 18, 1}, {1, 1, 45, 2}, {1, 2, 302, 3},
		{2, 1, 28, 2}, {2, 2, 228, 6}, {3, 1, 25, 1}, {3, 2, 176, 6},
	} {
		t.Run(fmt.Sprintf("size=%d/thieves=%d", tc.size, tc.thieves), func(t *testing.T) {
			ops := []any{popBottomOp{res: dag.None}}
			for range tc.thieves {
				ops = append(ops, popTopOp{res: dag.None})
			}
			m, init := dequeModel(nodes(tc.size), nil, ops, func(results []dag.NodeID) error {
				if tc.size > tc.thieves && results[0] == dag.None {
					return fmt.Errorf("popBottom returned NIL with %d items and %d thieves", tc.size, tc.thieves)
				}
				return nil
			})
			m.Verify(t, init, tc.states, tc.quiescent)
		})
	}
}

// TestExhaustivePushBottomVsThieves searches pushBottom racing two thieves.
func TestExhaustivePushBottomVsThieves(t *testing.T) {
	for _, tc := range []struct{ size, states, quiescent int }{{0, 64, 3}, {1, 118, 4}, {2, 136, 4}} {
		t.Run(fmt.Sprintf("size=%d", tc.size), func(t *testing.T) {
			ops := []any{pushBottomOp{node: 99}, popTopOp{res: dag.None}, popTopOp{res: dag.None}}
			m, init := dequeModel(nodes(tc.size), []dag.NodeID{99}, ops, func([]dag.NodeID) error { return nil })
			m.Verify(t, init, tc.states, tc.quiescent)
		})
	}
}

// TestExhaustiveThievesOnly searches pure thief contention. The relaxed
// semantics allow spurious NILs under contention (two thieves racing for
// the same top item: the loser returns NIL even though a second item sits
// below), but successes never exceed the items available, and at least one
// thief succeeds on a non-empty deque.
func TestExhaustiveThievesOnly(t *testing.T) {
	for _, tc := range []struct{ size, states, quiescent int }{{0, 27, 1}, {1, 172, 3}, {2, 310, 9}} {
		t.Run(fmt.Sprintf("size=%d", tc.size), func(t *testing.T) {
			ops := []any{popTopOp{res: dag.None}, popTopOp{res: dag.None}, popTopOp{res: dag.None}}
			m, init := dequeModel(nodes(tc.size), nil, ops, func(results []dag.NodeID) error {
				got := 0
				for _, r := range results {
					if r != dag.None {
						got++
					}
				}
				if got > tc.size {
					return fmt.Errorf("%d successes exceed %d items", got, tc.size)
				}
				if tc.size > 0 && got == 0 {
					return fmt.Errorf("every thief failed on a non-empty deque")
				}
				return nil
			})
			m.Verify(t, init, tc.states, tc.quiescent)
		})
	}
}

// TestExhaustiveSequentialOwnerOps sanity-checks the search itself: a
// single owner op has one schedule, its four instructions, and matches
// direct execution.
func TestExhaustiveSequentialOwnerOps(t *testing.T) {
	m, init := dequeModel(nodes(2), nil, []any{popBottomOp{res: dag.None}}, func(results []dag.NodeID) error {
		if results[0] != 2 {
			return fmt.Errorf("popBottom = %v, want 2 (bottom)", results[0])
		}
		return nil
	})
	final := m.Final
	m.Final = func(s dqState) error {
		if snap := s.deque().snapshot(); len(snap) != 1 || snap[0] != 1 {
			return fmt.Errorf("snapshot = %v", snap)
		}
		return final(s)
	}
	m.Verify(t, init, 5, 1)
}
