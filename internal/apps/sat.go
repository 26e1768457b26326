package apps

import (
	"fmt"
	"sync/atomic"

	"worksteal/internal/atomicx"
	"worksteal/internal/sched"
)

// The paper's opening example of a multiprogrammed workload is "a parallel
// design verifier [executing] concurrently with other serial and parallel
// applications". This file provides that verifier: a parallel DPLL SAT
// solver whose speculative search tree is exactly the kind of irregular,
// unpredictable computation work stealing was built for. Both branches of a
// decision are explored in parallel (up to a depth), and the first branch
// to find a model publishes it and lets the rest of the search wind down.

// CNF is a formula in conjunctive normal form. Literals are non-zero
// integers: +v is variable v, -v its negation, with 1 <= v <= NumVars.
type CNF struct {
	NumVars int
	Clauses [][]int
}

// Validate checks literal ranges and clause sanity.
func (f CNF) Validate() error {
	if f.NumVars < 0 {
		return fmt.Errorf("apps: negative variable count")
	}
	for i, c := range f.Clauses {
		if len(c) == 0 {
			return fmt.Errorf("apps: clause %d is empty (trivially unsatisfiable)", i)
		}
		for _, lit := range c {
			v := lit
			if v < 0 {
				v = -v
			}
			if v == 0 || v > f.NumVars {
				return fmt.Errorf("apps: clause %d has out-of-range literal %d", i, lit)
			}
		}
	}
	return nil
}

// Eval reports whether the assignment satisfies the formula.
// assignment[v-1] is the value of variable v.
func (f CNF) Eval(assignment []bool) bool {
	if len(assignment) < f.NumVars {
		return false
	}
	for _, c := range f.Clauses {
		ok := false
		for _, lit := range c {
			v := lit
			neg := false
			if v < 0 {
				v, neg = -v, true
			}
			if assignment[v-1] != neg {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// value of a variable in the partial assignment: 0 unassigned, 1 true,
// 2 false.
type satState struct {
	assign []uint8
}

func (s *satState) clone() *satState {
	ns := &satState{assign: make([]uint8, len(s.assign))}
	copy(ns.assign, s.assign)
	return ns
}

// litValue returns 1 if the literal is true, 2 if false, 0 if unassigned.
func (s *satState) litValue(lit int) uint8 {
	v := lit
	neg := false
	if v < 0 {
		v, neg = -v, true
	}
	a := s.assign[v-1]
	if a == 0 {
		return 0
	}
	if neg {
		return 3 - a
	}
	return a
}

// satSolver holds the shared search state.
type satSolver struct {
	f CNF
	// found is CAS'd once (the winning model) but polled by every branch
	// at every node; nodes is incremented by every branch at every node.
	// Unpadded they share a line, so each nodes.Add would invalidate the
	// found line every solver goroutine is polling — the textbook false
	// sharing abplayout flags (DESIGN.md §8).
	found atomic.Pointer[[]bool]
	_     atomicx.CacheLinePad
	nodes atomic.Int64
}

// SolveSAT searches for a satisfying assignment of f with parallel DPLL,
// spawning both branches of each decision down to spawnDepth. It returns
// the model and true, or nil and false if the formula is unsatisfiable.
// Must be called from a task on the pool.
func SolveSAT(w *sched.Worker, f CNF, spawnDepth int) ([]bool, bool) {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	s := &satSolver{f: f}
	st := &satState{assign: make([]uint8, f.NumVars)}
	s.dpll(w, st, spawnDepth)
	if m := s.found.Load(); m != nil {
		return *m, true
	}
	return nil, false
}

// SearchNodes reports the number of DPLL nodes explored by the last solve
// on this solver; exposed for tests via SolveSATStats.
func SolveSATStats(w *sched.Worker, f CNF, spawnDepth int) (model []bool, ok bool, nodes int64) {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	s := &satSolver{f: f}
	st := &satState{assign: make([]uint8, f.NumVars)}
	s.dpll(w, st, spawnDepth)
	if m := s.found.Load(); m != nil {
		return *m, true, s.nodes.Load()
	}
	return nil, false, s.nodes.Load()
}

// propagate performs unit propagation; it returns false on conflict.
func (s *satSolver) propagate(st *satState) bool {
	for changed := true; changed; {
		changed = false
		for _, c := range s.f.Clauses {
			unassigned := 0
			var unit int
			sat := false
			for _, lit := range c {
				switch st.litValue(lit) {
				case 1:
					sat = true
				case 0:
					unassigned++
					unit = lit
				}
				if sat {
					break
				}
			}
			if sat {
				continue
			}
			switch unassigned {
			case 0:
				return false // conflict: clause fully falsified
			case 1:
				v := unit
				val := uint8(1)
				if v < 0 {
					v, val = -v, 2
				}
				st.assign[v-1] = val
				changed = true
			}
		}
	}
	return true
}

// dpll explores the subtree rooted at st.
func (s *satSolver) dpll(w *sched.Worker, st *satState, depth int) {
	if s.found.Load() != nil {
		return // another branch already found a model
	}
	s.nodes.Add(1)
	if !s.propagate(st) {
		return
	}
	// Pick the first unassigned variable.
	branch := -1
	for i, a := range st.assign {
		if a == 0 {
			branch = i
			break
		}
	}
	if branch == -1 {
		// Complete assignment that survived propagation: a model.
		model := make([]bool, s.f.NumVars)
		for i, a := range st.assign {
			model[i] = a == 1
		}
		// First-writer-wins: a lost CAS means another worker already
		// published a model, which is just as good an answer.
		//abp:ignore mustcheck first-writer-wins race; any published model suffices
		s.found.CompareAndSwap(nil, &model)
		return
	}
	// Branch on the variable, cloning the state for the second polarity
	// (propagation mixes decisions with implications, so cloning before the
	// branch is the simple correct undo; states are NumVars bytes).
	alt := st.clone()
	alt.assign[branch] = 2
	st.assign[branch] = 1
	if depth > 0 {
		// Speculative parallel branching: fork the false branch, descend
		// into the true branch, then join.
		fut := sched.Fork(w, func(w2 *sched.Worker) struct{} {
			s.dpll(w2, alt, depth-1)
			return struct{}{}
		})
		s.dpll(w, st, depth-1)
		fut.Join(w)
		return
	}
	s.dpll(w, st, 0)
	if s.found.Load() == nil {
		s.dpll(w, alt, 0)
	}
}
