package sched

import (
	"fmt"
	"testing"
)

// explorer is the exhaustive interleaving search the protocol models of
// this package share (the *_model_test.go files), in the style of
// internal/sim/exhaustive_test.go. A model is a comparable state — so
// visited states prune the search — and a few actors; every atomic
// operation of the real protocol is one step of one actor, and the search
// takes every step of every actor from every state it reaches.
type explorer[S comparable] struct {
	actors int
	// step returns the states one step of actor a can move s to — none if
	// it cannot move, several if the step has a choice — or the violation
	// of a per-step property that the step commits.
	step func(s S, a int) ([]S, error)
	// final checks a state no actor can leave.
	final     func(s S) error
	seen      map[S]bool
	terminals int
}

// run visits every state reachable from s, returning the first violation
// with the schedule — the actor of each step — that led to it.
func (e *explorer[S]) run(s S, trail []int8) error {
	if e.seen == nil {
		e.seen = map[S]bool{}
	}
	if e.seen[s] {
		return nil
	}
	e.seen[s] = true
	moved := false
	for a := 0; a < e.actors; a++ {
		next, err := e.step(s, a)
		if err != nil {
			return fmt.Errorf("%v (schedule %v)", err, append(trail, int8(a)))
		}
		for _, n := range next {
			moved = true
			if err := e.run(n, append(trail, int8(a))); err != nil {
				return err
			}
		}
	}
	if moved {
		return nil
	}
	e.terminals++
	if err := e.final(s); err != nil {
		return fmt.Errorf("%v (schedule %v)", err, trail)
	}
	return nil
}

// verify fails t unless the protocol holds on every schedule from init.
func (e *explorer[S]) verify(t *testing.T, init S) {
	t.Helper()
	if err := e.run(init, nil); err != nil {
		t.Fatal(err)
	}
	if e.terminals == 0 {
		t.Fatal("the search reached no quiescent state")
	}
	t.Logf("%d states, %d quiescent", len(e.seen), e.terminals)
}

// refute is the negative control: e explores a model with its protocol
// broken on purpose — a flag its step function reads — and the search must
// find a schedule that shows it, or its passing verify would mean little.
func (e *explorer[S]) refute(t *testing.T, init S) {
	t.Helper()
	err := e.run(init, nil)
	if err == nil {
		t.Fatal("the broken protocol passed every schedule")
	}
	t.Log(err)
}
