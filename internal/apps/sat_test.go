package apps

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"worksteal/internal/atomicx"
	"worksteal/internal/sched"
)

// TestSatSolverLayoutPins asserts found, polled by every branch at every
// node, and nodes, which every branch bumps at every node, are on
// different cache lines.
func TestSatSolverLayoutPins(t *testing.T) {
	var s satSolver
	found, nodes := unsafe.Offsetof(s.found), unsafe.Offsetof(s.nodes)
	if found/atomicx.CacheLineSize == nodes/atomicx.CacheLineSize {
		t.Errorf("found (offset %d) and nodes (offset %d) share a cache line", found, nodes)
	}
}

// pigeonhole returns the (unsatisfiable for holes < pigeons) pigeonhole
// formula PHP(pigeons, holes): every pigeon in some hole, no two pigeons in
// one hole.
func pigeonhole(pigeons, holes int) CNF {
	va := func(p, h int) int { return p*holes + h + 1 }
	var clauses [][]int
	for p := 0; p < pigeons; p++ {
		var c []int
		for h := 0; h < holes; h++ {
			c = append(c, va(p, h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []int{-va(p1, h), -va(p2, h)})
			}
		}
	}
	return CNF{NumVars: pigeons * holes, Clauses: clauses}
}

// random3SAT generates a random 3-SAT instance.
func random3SAT(rng *rand.Rand, vars, clauses int) CNF {
	f := CNF{NumVars: vars}
	for i := 0; i < clauses; i++ {
		c := make([]int, 3)
		for j := range c {
			v := 1 + rng.Intn(vars)
			if rng.Intn(2) == 0 {
				v = -v
			}
			c[j] = v
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// serialSAT is an independent brute-force reference for small instances.
func serialSAT(f CNF) bool {
	assign := make([]bool, f.NumVars)
	var try func(v int) bool
	try = func(v int) bool {
		if v == f.NumVars {
			return f.Eval(assign)
		}
		assign[v] = true
		if try(v + 1) {
			return true
		}
		assign[v] = false
		return try(v + 1)
	}
	return try(0)
}

func solveOn(t *testing.T, f CNF, workers, depth int) ([]bool, bool) {
	t.Helper()
	var model []bool
	var ok bool
	sched.New(sched.Config{Workers: workers}).Run(func(w *sched.Worker) {
		model, ok = SolveSAT(w, f, depth)
	})
	if ok && !f.Eval(model) {
		t.Fatalf("returned model does not satisfy the formula")
	}
	return model, ok
}

func TestSATTrivial(t *testing.T) {
	sat := CNF{NumVars: 2, Clauses: [][]int{{1, 2}, {-1, 2}}}
	if _, ok := solveOn(t, sat, 2, 4); !ok {
		t.Fatal("satisfiable formula reported UNSAT")
	}
	unsat := CNF{NumVars: 1, Clauses: [][]int{{1}, {-1}}}
	if _, ok := solveOn(t, unsat, 2, 4); ok {
		t.Fatal("unsatisfiable formula reported SAT")
	}
}

func TestSATPigeonhole(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if _, ok := solveOn(t, pigeonhole(4, 3), workers, 6); ok {
			t.Fatalf("workers=%d: PHP(4,3) reported SAT", workers)
		}
		if _, ok := solveOn(t, pigeonhole(3, 3), workers, 6); !ok {
			t.Fatalf("workers=%d: PHP(3,3) reported UNSAT", workers)
		}
	}
}

func TestSATMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		vars := 4 + rng.Intn(8)
		f := random3SAT(rng, vars, 2+rng.Intn(5*vars))
		want := serialSAT(f)
		for _, depth := range []int{0, 4} {
			_, got := solveOn(t, f, 4, depth)
			if got != want {
				t.Fatalf("trial %d depth %d: solver says %v, brute force says %v\nformula: %+v",
					trial, depth, got, want, f)
			}
		}
	}
}

func TestSATEarlyTermination(t *testing.T) {
	// A formula with a huge number of models: the parallel search should
	// stop after the first one rather than exploring the whole tree.
	f := CNF{NumVars: 20}
	f.Clauses = append(f.Clauses, []int{1, 2})
	var nodes int64
	sched.New(sched.Config{Workers: 4}).Run(func(w *sched.Worker) {
		_, ok, n := SolveSATStats(w, f, 6)
		if !ok {
			t.Error("UNSAT on a near-trivial formula")
		}
		nodes = n
	})
	if nodes > 1<<12 {
		t.Fatalf("explored %d nodes; early termination failed", nodes)
	}
}

func TestSATUnitPropagationDrivesChains(t *testing.T) {
	// x1, x1->x2, x2->x3, ..., forces all true by propagation alone.
	const n = 30
	f := CNF{NumVars: n, Clauses: [][]int{{1}}}
	for i := 1; i < n; i++ {
		f.Clauses = append(f.Clauses, []int{-i, i + 1})
	}
	var nodes int64
	sched.New(sched.Config{Workers: 2}).Run(func(w *sched.Worker) {
		model, ok, nn := SolveSATStats(w, f, 4)
		nodes = nn
		if !ok {
			t.Error("UNSAT")
			return
		}
		for i, v := range model {
			if !v {
				t.Errorf("variable %d false; propagation should force true", i+1)
			}
		}
	})
	if nodes != 1 {
		t.Fatalf("explored %d nodes; the chain should resolve by propagation at the root", nodes)
	}
}

func TestCNFValidate(t *testing.T) {
	cases := map[string]CNF{
		"negative vars": {NumVars: -1},
		"empty clause":  {NumVars: 2, Clauses: [][]int{{}}},
		"zero literal":  {NumVars: 2, Clauses: [][]int{{0}}},
		"out of range":  {NumVars: 2, Clauses: [][]int{{3}}},
	}
	for name, f := range cases {
		if f.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := CNF{NumVars: 2, Clauses: [][]int{{1, -2}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid formula rejected: %v", err)
	}
}

func TestCNFEval(t *testing.T) {
	f := CNF{NumVars: 2, Clauses: [][]int{{1, -2}}}
	if !f.Eval([]bool{true, true}) || !f.Eval([]bool{false, false}) {
		t.Error("satisfying assignments rejected")
	}
	if f.Eval([]bool{false, true}) {
		t.Error("falsifying assignment accepted")
	}
	if f.Eval([]bool{true}) {
		t.Error("short assignment accepted")
	}
}

func BenchmarkSATPigeonhole(b *testing.B) {
	f := pigeonhole(6, 5)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := sched.New(sched.Config{Workers: workers})
			for i := 0; i < b.N; i++ {
				p.Run(func(w *sched.Worker) {
					if _, ok := SolveSAT(w, f, 8); ok {
						b.Fatal("PHP(6,5) reported SAT")
					}
				})
			}
		})
	}
}
