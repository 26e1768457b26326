package analysis

import (
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"worksteal/internal/dag"
	"worksteal/internal/offline"
	"worksteal/internal/sim"
	"worksteal/internal/workload"
)

func TestLogAdd(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{math.Log(1), math.Log(1), math.Log(2)},
		{math.Log(3), math.Log(9), math.Log(12)},
		{math.Inf(-1), math.Log(5), math.Log(5)},
		{math.Log(5), math.Inf(-1), math.Log(5)},
	}
	for _, c := range cases {
		if got := logAdd(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("logAdd(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestQuickLogAddCommutes(t *testing.T) {
	prop := func(x, y uint16) bool {
		a, b := float64(x)/100, float64(y)/100
		return math.Abs(logAdd(a, b)-logAdd(b, a)) < 1e-9 && logAdd(a, b) >= math.Max(a, b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInitialLogPotential(t *testing.T) {
	// Phi_0 = 3^(2*Tinf-1): for Tinf = 3, Phi_0 = 3^5 = 243.
	if got := InitialLogPotential(3); math.Abs(got-math.Log(243)) > 1e-12 {
		t.Fatalf("InitialLogPotential(3) = %v, want log(243)", got)
	}
}

// The tracked potential must start at 3^(2Tinf-1), never increase, and end
// near zero (empty), across kernels and workloads.
func TestPotentialNeverIncreases(t *testing.T) {
	for _, spec := range workload.SmallCatalog() {
		g := spec.Build()
		tinf := g.CriticalPath()
		tr := NewPotentialTracker(tinf)
		res := sim.NewEngine(sim.Config{
			Graph: g, P: 4, Kernel: sim.BenignKernel{NumProcs: 4},
			Seed: 17, Observer: tr,
		}).Run()
		if !res.Completed {
			t.Fatalf("%s: incomplete", spec.Name)
		}
		if len(tr.Points) == 0 {
			t.Fatalf("%s: no samples", spec.Name)
		}
		first := tr.Points[0].LogPhi
		if math.Abs(first-InitialLogPotential(tinf)) > 1e-9 {
			t.Errorf("%s: initial logPhi = %v, want %v", spec.Name, first, InitialLogPotential(tinf))
		}
		for i := 1; i < len(tr.Points); i++ {
			if tr.Points[i].LogPhi > tr.Points[i-1].LogPhi+1e-9 {
				t.Fatalf("%s: potential increased at round %d: %v -> %v",
					spec.Name, tr.Points[i].Round, tr.Points[i-1].LogPhi, tr.Points[i].LogPhi)
			}
		}
	}
}

// Lemma 8 empirically: phases with >= P throws succeed (drop Phi by >= 1/4)
// with frequency comfortably above the proven 1/4.
func TestLemma8PhaseDrops(t *testing.T) {
	const p = 8
	graphs := []*dag.Graph{
		workload.Chain(1000), // throw-heavy: parallelism 1
		workload.Grid(20, 30),
		workload.SpawnSpine(16, 40),
		workload.FibDag(16),
	}
	totalPhases, totalSuccess := 0, 0
	for _, g := range graphs {
		tr := NewPotentialTracker(g.CriticalPath())
		res := sim.NewEngine(sim.Config{
			Graph: g, P: p, Kernel: sim.DedicatedKernel{NumProcs: p},
			Seed: 23, Observer: tr,
		}).Run()
		if !res.Completed {
			t.Fatalf("%s: incomplete", g.Label())
		}
		stats := AnalyzePhases(tr.Points, p)
		if !stats.NeverIncreased {
			t.Errorf("%s: potential increased during execution", g.Label())
		}
		if stats.Phases > 0 && stats.MeanLogDrop <= 0 {
			t.Errorf("%s: mean log drop %v not positive", g.Label(), stats.MeanLogDrop)
		}
		totalPhases += stats.Phases
		totalSuccess += stats.Successful
	}
	if totalPhases < 10 {
		t.Fatalf("only %d phases across all workloads; need more steal pressure", totalPhases)
	}
	if rate := float64(totalSuccess) / float64(totalPhases); rate < 0.25 {
		t.Errorf("phase success rate %.2f below the Lemma 8 bound 0.25 (phases=%d)", rate, totalPhases)
	}
}

func TestAnalyzePhasesEdgeCases(t *testing.T) {
	if s := AnalyzePhases(nil, 4); s.Phases != 0 || !s.NeverIncreased {
		t.Errorf("empty trace: %+v", s)
	}
	// A trace with an increase is flagged.
	pts := []PhasePoint{{0, 0, 10}, {1, 5, 11}, {2, 10, 3}}
	s := AnalyzePhases(pts, 4)
	if s.NeverIncreased {
		t.Error("increase not flagged")
	}
	if s.Phases != 2 {
		t.Errorf("phases = %d, want 2", s.Phases)
	}
	// First phase rises 10 -> 11 (failure); second drops 11 -> 3 (success).
	if s.Successful != 1 {
		t.Errorf("successful = %d, want 1", s.Successful)
	}
}

// The structural lemma holds at every instruction of every run.
func TestStructuralLemmaHolds(t *testing.T) {
	for _, spec := range workload.SmallCatalog() {
		for _, p := range []int{2, 5} {
			g := spec.Build()
			chk := NewStructuralChecker(g.CriticalPath())
			res := sim.NewEngine(sim.Config{
				Graph: g, P: p, Kernel: sim.BenignKernel{NumProcs: p},
				Seed: 31, ShuffleSteps: true, Observer: chk,
			}).Run()
			if !res.Completed {
				t.Fatalf("%s P=%d: incomplete", spec.Name, p)
			}
			if chk.Checks == 0 {
				t.Fatalf("%s P=%d: checker never ran", spec.Name, p)
			}
			if !chk.Ok() {
				t.Fatalf("%s P=%d: structural lemma violated:\n%v", spec.Name, p, chk.Violations)
			}
		}
	}
}

// The lemma holds on lazy exposure too: the region and the public part are
// one deque to the owner (sim.DequeLazy), snapshotted bottom to top, and
// the weights still strictly increase toward the top.
func TestStructuralLemmaLazyDeque(t *testing.T) {
	for _, spec := range workload.SmallCatalog() {
		g := spec.Build()
		chk := NewStructuralChecker(g.CriticalPath())
		res := sim.NewEngine(sim.Config{
			Graph: g, P: 4, Kernel: sim.BenignKernel{NumProcs: 4},
			Deque: sim.DequeLazy, LazyK: 2, Seed: 31, ShuffleSteps: true, Observer: chk,
		}).Run()
		if !res.Completed || chk.Checks == 0 {
			t.Fatalf("%s: completed %v after %d checks", spec.Name, res.Completed, chk.Checks)
		}
		if !chk.Ok() {
			t.Fatalf("%s: structural lemma violated:\n%v", spec.Name, chk.Violations)
		}
	}
}

// Run the structural checker under the starvation-heavy adaptive adversary
// and spawn-order ablation too: the lemma is invariant to those choices.
func TestStructuralLemmaUnderAdversaryAndPolicy(t *testing.T) {
	g := workload.Strands(5, 9)
	for _, pol := range []sim.SpawnPolicy{sim.RunChild, sim.RunParent} {
		chk := NewStructuralChecker(g.CriticalPath())
		res := sim.NewEngine(sim.Config{
			Graph: g, P: 4, Kernel: sim.StarveWorkersKernel{NumProcs: 4},
			Yield: sim.YieldToAll, Policy: pol, Seed: 5, Observer: chk,
		}).Run()
		if !res.Completed {
			t.Fatalf("policy %v: incomplete", pol)
		}
		if !chk.Ok() {
			t.Fatalf("policy %v: violations: %v", pol, chk.Violations)
		}
	}
}

// Balls and weighted bins: the Monte Carlo estimate respects Lemma 7's
// lower bound for several weight profiles and beta values.
func TestLemma7MonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	profiles := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				w[i] = 1
			}
			return w
		},
		"single": func(n int) []float64 {
			w := make([]float64, n)
			w[0] = 100
			return w
		},
		"geometric": func(n int) []float64 {
			w := make([]float64, n)
			x := 1.0
			for i := range w {
				w[i] = x
				x /= 2
			}
			return w
		},
	}
	for name, mk := range profiles {
		for _, n := range []int{4, 16, 64} {
			for _, beta := range []float64{0.25, 0.5} {
				got := BallsInBinsEstimate(mk(n), beta, 4000, rng)
				bound := Lemma7Bound(beta)
				// Allow 3-sigma Monte Carlo slack below the bound.
				slack := 3 * math.Sqrt(bound*(1-bound)/4000)
				if got < bound-slack {
					t.Errorf("%s n=%d beta=%.2f: estimate %.3f below bound %.3f", name, n, beta, got, bound)
				}
			}
		}
	}
}

func TestLemma7BoundValues(t *testing.T) {
	// beta = 1/2: bound = 1 - 2/e ~ 0.2642.
	if got := Lemma7Bound(0.5); math.Abs(got-(1-2/math.E)) > 1e-12 {
		t.Errorf("Lemma7Bound(0.5) = %v", got)
	}
	if Lemma7Bound(0) <= Lemma7Bound(0.5) {
		t.Error("bound should decrease in beta")
	}
}

func TestBallsInBinsEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := BallsInBinsTrial(nil, rng); got != 0 {
		t.Errorf("empty trial = %v", got)
	}
	if got := BallsInBinsEstimate([]float64{0, 0}, 0.5, 10, rng); got != 1 {
		t.Errorf("zero-weight estimate = %v, want 1", got)
	}
}

func TestFitBound(t *testing.T) {
	// Synthesize runs obeying T = (2*T1 + 3*Tinf*P)/PA exactly.
	var pts []RunPoint
	for _, p := range []int{1, 2, 4, 8} {
		for _, tinf := range []int{10, 50} {
			t1 := tinf * 37
			pa := float64(p)
			steps := (2*float64(t1) + 3*float64(tinf)*float64(p)) / pa
			pts = append(pts, RunPoint{T1: t1, Tinf: tinf, P: p, Steps: int(steps), PA: pa})
		}
	}
	fit, err := FitBound(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.C1-2) > 0.05 || math.Abs(fit.Cinf-3) > 0.5 {
		t.Errorf("fit = %+v, want C1~2, Cinf~3", fit)
	}
	if fit.MaxRatio > 1.05 {
		t.Errorf("MaxRatio = %v", fit.MaxRatio)
	}
	if r := BoundRatio(pts[0], fit.C1, fit.Cinf); r > 1.1 {
		t.Errorf("BoundRatio = %v", r)
	}
}

func TestFitBoundErrors(t *testing.T) {
	if _, err := FitBound(nil); err == nil {
		t.Error("no error on empty input")
	}
	// Collinear design: T1 proportional to Tinf*P in every run.
	pts := []RunPoint{
		{T1: 10, Tinf: 5, P: 2, Steps: 100, PA: 2},
		{T1: 20, Tinf: 10, P: 2, Steps: 200, PA: 2},
	}
	if _, err := FitBound(pts); err == nil {
		t.Error("no error on degenerate design")
	}
}

// End-to-end E7-style: fit the constants over a dedicated-kernel grid and
// confirm the fitted model explains the measurements tightly.
func TestFitOverSimGrid(t *testing.T) {
	var pts []RunPoint
	for _, spec := range []workload.Spec{
		{Name: "fib", Build: func() *dag.Graph { return workload.FibDag(12) }},
		{Name: "grid", Build: func() *dag.Graph { return workload.Grid(12, 20) }},
		{Name: "chain", Build: func() *dag.Graph { return workload.Chain(400) }},
	} {
		g := spec.Build()
		for _, p := range []int{1, 2, 4, 8} {
			res := sim.NewEngine(sim.Config{
				Graph: g, P: p, Kernel: sim.DedicatedKernel{NumProcs: p}, Seed: 7,
			}).Run()
			if !res.Completed {
				t.Fatalf("%s P=%d incomplete", spec.Name, p)
			}
			pts = append(pts, RunPoint{T1: g.Work(), Tinf: g.CriticalPath(), P: p,
				Steps: res.Steps, PA: res.PA})
		}
	}
	fit, err := FitBound(pts)
	if err != nil {
		t.Fatal(err)
	}
	// The scheduling loop costs a handful of instructions per node, so C1
	// is a small constant; Cinf covers steal latency per critical-path
	// node. Both must be modest for the bound to be meaningful.
	if fit.C1 <= 0 || fit.C1 > 20 {
		t.Errorf("C1 = %v out of the plausible range", fit.C1)
	}
	if fit.Cinf > 40*sim.MilestoneC {
		t.Errorf("Cinf = %v implausibly large", fit.Cinf)
	}
	if fit.MeanAbs > 0.6 {
		t.Errorf("mean relative error %.2f too large for the fitted bound", fit.MeanAbs)
	}
}

func TestRoundCSV(t *testing.T) {
	g := workload.FibDag(8)
	var sb strings.Builder
	csv := NewRoundCSV(&sb, g.CriticalPath())
	res := sim.NewEngine(sim.Config{Graph: g, P: 3,
		Kernel: sim.DedicatedKernel{NumProcs: 3}, Seed: 2, Observer: csv}).Run()
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if csv.Err() != nil {
		t.Fatalf("csv error: %v", csv.Err())
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "round,steps,throws,logPhi" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != res.Rounds+1 {
		t.Fatalf("%d data lines, want %d", len(lines)-1, res.Rounds)
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != 3 {
			t.Fatalf("malformed line %q", line)
		}
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestRoundCSVWriteError(t *testing.T) {
	g := workload.Chain(30)
	csv := NewRoundCSV(&failingWriter{}, g.CriticalPath())
	sim.NewEngine(sim.Config{Graph: g, P: 2,
		Kernel: sim.DedicatedKernel{NumProcs: 2}, Seed: 2, Observer: csv}).Run()
	if csv.Err() == nil {
		t.Fatal("write error not surfaced")
	}
}

func TestScheduleRecorder(t *testing.T) {
	g := dag.Figure1()
	rec := NewScheduleRecorder(10000)
	res := sim.NewEngine(sim.Config{Graph: g, P: 3,
		Kernel: sim.DedicatedKernel{NumProcs: 3}, Seed: 4, Observer: rec}).Run()
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if rec.Executions() != g.NumNodes() {
		t.Fatalf("recorded %d executions, want %d", rec.Executions(), g.NumNodes())
	}
	var sb strings.Builder
	rec.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "x1@p0") {
		t.Errorf("root execution by process 0 missing:\n%s", out)
	}
	if !strings.Contains(out, "x11@") {
		t.Errorf("final node execution missing:\n%s", out)
	}
}

func TestScheduleRecorderTruncates(t *testing.T) {
	g := workload.Chain(100)
	rec := NewScheduleRecorder(5)
	sim.NewEngine(sim.Config{Graph: g, P: 1,
		Kernel: sim.DedicatedKernel{NumProcs: 1}, Seed: 4, Observer: rec}).Run()
	var sb strings.Builder
	rec.Render(&sb)
	if !strings.Contains(sb.String(), "more steps") {
		t.Errorf("truncation marker missing:\n%s", sb.String())
	}
}

// The schedule extracted from a live simulation must be a valid execution
// schedule in the formal Section 2 sense, and must satisfy Theorem 1's
// universal lower bound.
func TestScheduleExtractorBridge(t *testing.T) {
	for _, spec := range workload.SmallCatalog() {
		g := spec.Build()
		x := NewScheduleExtractor()
		res := sim.NewEngine(sim.Config{Graph: g, P: 4,
			Kernel: sim.BenignKernel{NumProcs: 4}, Seed: 77, Observer: x}).Run()
		if !res.Completed {
			t.Fatalf("%s: incomplete", spec.Name)
		}
		k, e := x.Extract(g)
		if err := e.Validate(k); err != nil {
			t.Fatalf("%s: extracted schedule invalid: %v", spec.Name, err)
		}
		if e.Length() != res.Steps {
			t.Errorf("%s: extracted length %d != measured steps %d", spec.Name, e.Length(), res.Steps)
		}
		if err := offline.CheckTheorem1(e); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		// PA agreement between the engine and the formal object.
		if pa := e.ProcessorAverage(); math.Abs(pa-res.PA) > 1e-9 {
			t.Errorf("%s: extracted PA %v != measured %v", spec.Name, pa, res.PA)
		}
		// The on-line schedule is usually NOT greedy (steal latency), which
		// is the gap Theorems 9-12 close; just confirm the checker runs.
		_ = e.IsGreedy()
	}
}

// Lemma 6 (Top-Heavy Deques) holds at every instruction of every run.
func TestLemma6TopHeavyDeques(t *testing.T) {
	for _, spec := range workload.SmallCatalog() {
		g := spec.Build()
		chk := NewTopHeavyChecker(g.CriticalPath())
		res := sim.NewEngine(sim.Config{Graph: g, P: 5,
			Kernel: sim.BenignKernel{NumProcs: 5}, Seed: 19,
			ShuffleSteps: true, Observer: chk}).Run()
		if !res.Completed {
			t.Fatalf("%s: incomplete", spec.Name)
		}
		if !chk.Ok() {
			t.Fatalf("%s: Lemma 6 violated:\n%v", spec.Name, chk.Violations)
		}
	}
}

// Lemma 5 empirically: execution time is O(T1/P_A + S/P_A) where S is the
// number of throws — equivalently steps*P_A <= c1*T1 + c2*S*C + slack. We
// verify with generous constants across kernels (the proof's token argument
// gives roughly one token per 2C steps per scheduled process, each charged
// to work or to a throw).
func TestLemma5ThrowAccounting(t *testing.T) {
	for _, spec := range workload.SmallCatalog() {
		g := spec.Build()
		for _, k := range []sim.Kernel{
			sim.DedicatedKernel{NumProcs: 6},
			sim.ConstBenign(6, 2),
		} {
			res := sim.NewEngine(sim.Config{Graph: g, P: 6, Kernel: k, Seed: 29}).Run()
			if !res.Completed {
				t.Fatalf("%s: incomplete", spec.Name)
			}
			tokens := float64(res.ProcInstr)
			// Each node costs at most ~13 instructions of work-side overhead
			// (execute + push/pop around it), and each throw accounts for at
			// most 3C instructions of thieving.
			bound := 13.0*float64(g.Work()) + 3.0*float64(sim.MilestoneC)*float64(res.Throws+6)
			if tokens > bound {
				t.Errorf("%s/%T: %v instructions exceed Lemma 5 bound %v (throws=%d)",
					spec.Name, k, tokens, bound, res.Throws)
			}
		}
	}
}

// Cross-validation: with one process, the simulator's execution order is
// exactly the serial depth-first (1DF) order the offline PDF scheduler
// derives, since both implement the same Figure 3 loop.
func TestSimSerialMatchesOneDF(t *testing.T) {
	for _, spec := range workload.SmallCatalog() {
		g := spec.Build()
		rec := NewScheduleRecorder(1 << 20)
		res := sim.NewEngine(sim.Config{Graph: g, P: 1,
			Kernel: sim.DedicatedKernel{NumProcs: 1}, Seed: 1,
			Policy: sim.RunChild, Observer: rec}).Run()
		if !res.Completed {
			t.Fatalf("%s: incomplete", spec.Name)
		}
		order := offline.OneDFOrder(g)
		// Flatten the recorded executions in step order.
		var got []dag.NodeID
		for s := 1; s <= 1<<20 && len(got) < g.NumNodes(); s++ {
			for _, ev := range rec.rows[s] {
				got = append(got, ev.node)
			}
		}
		if len(got) != g.NumNodes() {
			t.Fatalf("%s: recorded %d executions", spec.Name, len(got))
		}
		for i, u := range got {
			if order[u] != i {
				t.Fatalf("%s: execution %d was node %d with 1DF index %d", spec.Name, i, u, order[u])
			}
		}
	}
}

func TestGantt(t *testing.T) {
	g := workload.FibDag(10)
	gantt := NewGantt(40)
	res := sim.NewEngine(sim.Config{Graph: g, P: 4,
		Kernel: sim.ConstBenign(4, 2), Seed: 21, Observer: gantt}).Run()
	if !res.Completed {
		t.Fatal("incomplete")
	}
	var sb strings.Builder
	gantt.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p3") {
		t.Fatalf("missing process rows:\n%s", out)
	}
	if !strings.Contains(out, "W") {
		t.Fatalf("nobody ever worked:\n%s", out)
	}
	if !strings.Contains(out, " ") {
		t.Fatalf("a 2-of-4 benign kernel must leave unscheduled gaps:\n%s", out)
	}
}

// White-box: the structural checker must actually fire on states that
// violate the lemma (here fabricated by hand).
func TestStructuralCheckerDetectsViolations(t *testing.T) {
	g := dag.Figure1()
	st := dag.NewState(g)
	ids := dag.Figure1NodeIDs()
	x := func(k int) dag.NodeID { return ids[k-1] }
	// Execute x1, x2 so that x3 (weight Tinf-2) and x5 (weight Tinf-2) are
	// enabled... actually execute deeper to get distinct weights:
	st.Execute(x(1))
	st.Execute(x(2)) // enables x3 and x5
	st.Execute(x(5)) // enables x6
	// Fabricate a deque with weights INCREASING toward the bottom (x6 is
	// deeper than x3): bottom..top = [x3, x6] violates Corollary 4 because
	// w(x6) < w(x3) going up.
	chk := NewStructuralChecker(g.CriticalPath())
	bad := sim.ProcSnapshot{Assigned: dag.None,
		Deque: []dag.NodeID{x(3), x(6)}, Stable: true}
	chk.Checks++
	chkProcForTest(chk, st, bad)
	if chk.Ok() {
		t.Fatal("checker accepted a weight inversion")
	}
}

// chkProcForTest exposes the per-process check to white-box tests.
func chkProcForTest(c *StructuralChecker, st *dag.State, ps sim.ProcSnapshot) {
	c.checkProc(st, 0, ps)
}
