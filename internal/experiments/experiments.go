// Package experiments implements the E1-E10 reproduction experiments listed
// in DESIGN.md: each function runs one experiment and renders the table or
// figure analogue the paper's artefact corresponds to. The cmd/figures
// binary runs them all to regenerate EXPERIMENTS.md, and the root
// bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"worksteal/internal/analysis"
	"worksteal/internal/dag"
	"worksteal/internal/offline"
	"worksteal/internal/sim"
	"worksteal/internal/table"
	"worksteal/internal/workload"
)

// Graphs returns the experiment workload suite: computation dags spanning
// parallelism 1 (chain) to several hundred (fib), including two
// non-fully-strict dags (grid, strands).
func Graphs() []workload.Spec {
	return []workload.Spec{
		{Name: "chain", Build: func() *dag.Graph { return workload.Chain(2000) }},
		{Name: "spine", Build: func() *dag.Graph { return workload.SpawnSpine(32, 64) }},
		{Name: "fib", Build: func() *dag.Graph { return workload.FibDag(16) }},
		{Name: "grid", Build: func() *dag.Graph { return workload.Grid(32, 64) }},
		{Name: "strands", Build: func() *dag.Graph { return workload.Strands(24, 41) }},
		{Name: "randomSP", Build: func() *dag.Graph { return workload.RandomSP(42, 3000) }},
		{Name: "uts", Build: func() *dag.Graph { return workload.UnbalancedTree(7, 3000) }},
	}
}

// E1Figure1 regenerates Figure 1: the example computation dag with its two
// threads, spawn edge, semaphore edge, and join edge, and reports its work,
// critical-path length and parallelism.
func E1Figure1(w io.Writer) {
	g := dag.Figure1()
	fmt.Fprintln(w, "## E1: Figure 1 — example computation dag")
	fmt.Fprintln(w, "root thread:  x1 -> x2 -> x3 -> x4 -> x10 -> x11")
	fmt.Fprintln(w, "child thread: x5 -> x6 -> x7 -> x8 -> x9")
	fmt.Fprintln(w, "edges beyond continuations:")
	for _, e := range g.Edges() {
		if e.Kind != dag.Continuation {
			fmt.Fprintf(w, "  x%d -> x%d (%s)\n", e.From+1, e.To+1, e.Kind)
		}
	}
	fmt.Fprintf(w, "work T1 = %d, critical-path length Tinf = %d, parallelism T1/Tinf = %.3f\n\n",
		g.Work(), g.CriticalPath(), g.Parallelism())
}

// E2Greedy regenerates Figure 2: the example kernel schedule (P = 3,
// processor average 2 over ten steps) and a greedy execution schedule of
// the Figure 1 dag against it, then checks Theorems 1 and 2 on it.
func E2Greedy(w io.Writer) {
	g := dag.Figure1()
	k := offline.Figure2Kernel()
	fmt.Fprintln(w, "## E2: Figure 2 — kernel schedule and greedy execution schedule")
	fmt.Fprintf(w, "kernel schedule (P=%d): p_i =", k.P())
	for i := 0; i < 10; i++ {
		fmt.Fprintf(w, " %d", k.ProcsAt(i))
	}
	fmt.Fprintf(w, "  (P_A over 10 steps = %.2f)\n", offline.ProcessorAverage(k, 10))
	e := offline.Greedy(g, k, 1000)
	fmt.Fprint(w, e)
	check := func(name string, err error) {
		status := "holds"
		if err != nil {
			status = "VIOLATED: " + err.Error()
		}
		fmt.Fprintf(w, "%s: %s\n", name, status)
	}
	check("Theorem 1 (length >= T1/P_A)", offline.CheckTheorem1(e))
	check("Theorem 2 (tokens <= T1 + Tinf(P-1))", offline.CheckTheorem2(e, k.P()))
	fmt.Fprintln(w)
}

// E3LowerBound demonstrates Theorem 1's adversarial kernel: for processor
// averages stepping down from P, the forced schedule length meets the
// Tinf*P/P_A lower bound.
func E3LowerBound(w io.Writer) {
	tb := table.New("E3: Theorem 1 lower-bound kernel (greedy scheduler, P=4)",
		"workload", "gap", "T1", "Tinf", "length", "P_A", "Tinf*P/P_A", "len/bound")
	const p = 4
	for _, spec := range Graphs() {
		g := spec.Build()
		for _, gap := range []int{0, 1, 3, 7} {
			k := offline.LowerBound{NumProcs: p, Gap: gap}
			e := offline.Greedy(g, k, (gap+1)*(g.Work()+g.CriticalPath())*2+100)
			pa := e.ProcessorAverage()
			bound := float64(g.CriticalPath()*p) / pa
			tb.Row(spec.Name, gap, g.Work(), g.CriticalPath(), e.Length(), pa, bound,
				float64(e.Length())/bound)
		}
	}
	tb.Render(w)
}

// E4GreedyBound sweeps random kernel schedules and verifies the Theorem 2
// upper bound on every greedy schedule, reporting how tight it is.
func E4GreedyBound(w io.Writer) {
	tb := table.New("E4: Theorem 2 greedy upper bound (random kernels)",
		"workload", "P", "length", "P_A", "bound", "len/bound", "holds")
	rng := rand.New(rand.NewSource(4))
	for _, spec := range Graphs() {
		g := spec.Build()
		for _, p := range []int{2, 4, 8} {
			prefix := make([]int, 4*g.Work()/p+64)
			for i := range prefix {
				prefix[i] = rng.Intn(p + 1)
			}
			k := offline.Fixed{NumProcs: p, Prefix: prefix}
			e := offline.Greedy(g, k, 100*g.Work()+1000)
			pa := e.ProcessorAverage()
			bound := (float64(g.Work()) + float64(g.CriticalPath()*(p-1))) / pa
			holds := offline.CheckTheorem2(e, p) == nil
			tb.Row(spec.Name, p, e.Length(), pa, bound, float64(e.Length())/bound, holds)
		}
	}
	tb.Render(w)
}

// simPoint runs one simulation and converts it to an analysis.RunPoint.
func simPoint(g *dag.Graph, p int, k sim.Kernel, y sim.YieldKind, seed int64) (sim.Result, analysis.RunPoint) {
	res := sim.NewEngine(sim.Config{Graph: g, P: p, Kernel: k, Yield: y, Seed: seed}).Run()
	pt := analysis.RunPoint{T1: g.Work(), Tinf: g.CriticalPath(), P: p, Steps: res.Steps, PA: res.PA}
	return res, pt
}

// E5Dedicated reproduces the Theorem 9 experiment: dedicated kernel, P from
// 1 to 16, reporting time (mean of 3 seeds), speedup and throws for each
// workload.
func E5Dedicated(w io.Writer) []analysis.RunPoint {
	tb := table.New("E5: dedicated environment (Theorem 9; mean of 3 seeds)",
		"workload", "T1", "Tinf", "P", "steps", "speedup", "throws", "throws/(Tinf*P)")
	const seeds = 3
	var points []analysis.RunPoint
	for _, spec := range Graphs() {
		g := spec.Build()
		base := 0.0
		for _, p := range []int{1, 2, 4, 8, 16} {
			var steps, pa, throws float64
			for sd := int64(0); sd < seeds; sd++ {
				res, _ := simPoint(g, p, sim.DedicatedKernel{NumProcs: p}, sim.YieldNone, 100+int64(p)+sd*997)
				if !res.Completed {
					panic(fmt.Sprintf("E5 %s P=%d did not complete", spec.Name, p))
				}
				steps += float64(res.Steps)
				pa += res.PA
				throws += float64(res.Throws)
			}
			steps /= seeds
			pa /= seeds
			throws /= seeds
			points = append(points, analysis.RunPoint{T1: g.Work(), Tinf: g.CriticalPath(),
				P: p, Steps: int(steps), PA: pa})
			if p == 1 {
				base = steps
			}
			tb.Row(spec.Name, g.Work(), g.CriticalPath(), p, int(steps),
				base/steps, int(throws),
				throws/float64(g.CriticalPath()*p))
		}
	}
	tb.Render(w)
	return points
}

// E6Adversaries reproduces the Theorems 10-12 experiments: each adversary
// class with its sufficient yield discipline, at P = 8 with roughly 2
// processors' worth of service, reporting measured time against the
// T1/P_A + Tinf*P/P_A bound shape.
func E6Adversaries(w io.Writer) []analysis.RunPoint {
	tb := table.New("E6: multiprogrammed adversaries (Theorems 10-12, P=8, ~2 procs of service)",
		"workload", "adversary", "yield", "steps", "P_A", "normalized", "subst")
	const p = 8
	var points []analysis.RunPoint
	for _, spec := range Graphs() {
		g := spec.Build()
		cases := []struct {
			name string
			k    sim.Kernel
			y    sim.YieldKind
		}{
			{"benign", sim.ConstBenign(p, 2), sim.YieldNone},
			{"oblivious", sim.NewSeededOblivious(p, 2, 61), sim.YieldToRandom},
			{"adaptive", sim.StarveWorkersKernel{NumProcs: p}, sim.YieldToAll},
		}
		for _, c := range cases {
			res, pt := simPoint(g, p, c.k, c.y, 7)
			if !res.Completed {
				panic(fmt.Sprintf("E6 %s/%s did not complete", spec.Name, c.name))
			}
			points = append(points, pt)
			// normalized = steps * PA / (T1 + Tinf*P): the per-unit cost of
			// the bound; constant across workloads when the bound is tight.
			norm := float64(res.Steps) * res.PA / (float64(g.Work()) + float64(g.CriticalPath()*p))
			tb.Row(spec.Name, c.name, c.y.String(), res.Steps, res.PA, norm, res.Substitutions)
		}
	}
	tb.Render(w)
	return points
}

// E32LazyExposure runs E5's dedicated kernel and E6's three adversaries at
// P = 8 on the ABP deque and on lazy exposure (sim.DequeLazy) with regions
// of k = 1, 4 and 8, reporting for each, as a mean of three seeds, the bound ratio
// steps·P_A/(T1 + Tinf·P) (E6's normalized column), the steals and the
// fenced deque operations per node; then, per adversary and deque, the
// range of the bound ratio and its largest ratio to the ABP run's. Lazy
// exposure keeps its bounds if the adaptive rows stay in E6's band and
// within 25 % of ABP's.
func E32LazyExposure(w io.Writer) {
	tb := table.New("E32: lazy exposure vs the ABP deque (P=8, mean of 3 seeds; bound_x = steps*P_A/(T1+Tinf*P))",
		"workload", "adversary", "deque", "steps", "bound_x", "steals", "fences/node", "private/node")
	const p = 8
	type key struct{ adv, deque string }
	type span struct{ lo, hi, worst, fences, nodes float64 }
	spans := map[key]*span{}
	var order []key
	const seeds = 3
	advs := []struct {
		name string
		k    func(sd int64) sim.Kernel
		y    sim.YieldKind
		seed int64
	}{
		{"dedicated", func(int64) sim.Kernel { return sim.DedicatedKernel{NumProcs: p} }, sim.YieldNone, 100 + p},
		{"benign", func(int64) sim.Kernel { return sim.ConstBenign(p, 2) }, sim.YieldNone, 7},
		{"oblivious", func(sd int64) sim.Kernel { return sim.NewSeededOblivious(p, 2, 61+sd) }, sim.YieldToRandom, 7},
		{"adaptive", func(int64) sim.Kernel { return sim.StarveWorkersKernel{NumProcs: p} }, sim.YieldToAll, 7},
	}
	deques := []struct {
		name string
		kind sim.DequeKind
		k    int
	}{{"abp", sim.DequeABP, 0}, {"lazy k=1", sim.DequeLazy, 1}, {"lazy k=4", sim.DequeLazy, 4}, {"lazy k=8", sim.DequeLazy, 8}}
	for _, spec := range Graphs() {
		g := spec.Build()
		work := float64(g.Work()) + float64(g.CriticalPath()*p)
		nodes := float64(g.NumNodes())
		for _, a := range advs {
			abp := 0.0
			for _, d := range deques {
				var steps, bx, steals, fences, private float64
				for sd := int64(0); sd < seeds; sd++ {
					res := sim.NewEngine(sim.Config{Graph: g, P: p, Kernel: a.k(sd), Yield: a.y,
						Deque: d.kind, LazyK: d.k, Seed: a.seed + sd*997}).Run()
					if !res.Completed || res.NodesExecuted != g.NumNodes() {
						panic(fmt.Sprintf("E32 %s/%s/%s did not complete", spec.Name, a.name, d.name))
					}
					steps += float64(res.Steps) / seeds
					bx += float64(res.Steps) * res.PA / work / seeds
					steals += float64(res.Steals) / seeds
					fences += float64(res.Fences) / seeds
					private += float64(res.PrivateOps) / seeds
				}
				tb.Row(spec.Name, a.name, d.name, int(steps), bx, steals, fences/nodes, private/nodes)
				if d.kind == sim.DequeABP {
					abp = bx
				}
				kk := key{a.name, d.name}
				sp := spans[kk]
				if sp == nil {
					sp = &span{lo: bx, hi: bx}
					spans[kk] = sp
					order = append(order, kk)
				}
				sp.lo, sp.hi, sp.worst = min(sp.lo, bx), max(sp.hi, bx), max(sp.worst, bx/abp)
				sp.fences += fences
				sp.nodes += nodes
			}
		}
	}
	tb.Render(w)
	sum := table.New("E32 summary: per adversary and deque, over the seven workloads",
		"adversary", "deque", "bound_x min", "bound_x max", "max bound_x / abp", "fences/node")
	for _, kk := range order {
		sp := spans[kk]
		sum.Row(kk.adv, kk.deque, sp.lo, sp.hi, sp.worst, sp.fences/sp.nodes)
	}
	sum.Render(w)
}

// E7Fit fits the constants of T = (C1*T1 + Cinf*Tinf*P)/P_A over the E5 and
// E6 measurement grids: the Hood studies' "constant hidden in the big-Oh is
// small" claim, with C1 here absorbing the scheduling loop's instructions
// per node.
func E7Fit(w io.Writer, points []analysis.RunPoint) {
	fit, err := analysis.FitBound(points)
	fmt.Fprintln(w, "## E7: fitted bound constants over the E5+E6 grid")
	if err != nil {
		fmt.Fprintf(w, "fit failed: %v\n\n", err)
		return
	}
	fmt.Fprintf(w, "T*P_A ~= C1*T1 + Cinf*Tinf*P with C1 = %.3f, Cinf = %.3f\n", fit.C1, fit.Cinf)
	fmt.Fprintf(w, "(C1 counts simulator instructions per node: the scheduling loop costs ~4-6;\n")
	fmt.Fprintf(w, " Cinf is per critical-path node per process, in units of one instruction)\n")
	fmt.Fprintf(w, "max measured/fitted ratio = %.3f, mean relative error = %.3f, runs = %d\n\n",
		fit.MaxRatio, fit.MeanAbs, len(points))
}

// E8Ablations reproduces the Hood claim that the non-blocking deques and
// the yields are both essential when P_A < P: removing either causes
// dramatic degradation (here: livelock until the round limit) under the
// matching adversary, while the full implementation sails through.
func E8Ablations(w io.Writer) {
	tb := table.New("E8: ablations — non-blocking deques and yields are essential",
		"config", "workload", "adversary", "completed", "rounds", "steps", "spin/subst")
	const p = 8
	const roundCap = 20000

	run := func(label string, g *dag.Graph, cfg sim.Config) {
		cfg.Graph, cfg.P, cfg.MaxRounds = g, p, roundCap
		res := sim.NewEngine(cfg).Run()
		extra := res.SpinSteps + res.Substitutions
		tb.Row(label, g.Label(), fmt.Sprintf("%T", cfg.Kernel), res.Completed, res.Rounds, res.Steps, extra)
	}

	// Deque ablation: the adversary preempts any process the moment it
	// holds a deque lock. The ABP deque has no locks and is unaffected; the
	// locked deque stops dead at the first preempted acquisition.
	fib := workload.FibDag(13)
	lockAdv := sim.PreemptLockHolderKernel{NumProcs: p}
	run("ABP deque", fib, sim.Config{Kernel: lockAdv, Seed: 1})
	run("locked deque", fib, sim.Config{Kernel: lockAdv, Deque: sim.DequeLocked, Seed: 1})

	// Yield ablation on a serial chain, where all work is always inside one
	// process: adversaries that starve work-holders stop all progress unless
	// the yield discipline forces them back in.
	chain := workload.Chain(500)
	starve := sim.StarveWorkersKernel{NumProcs: p}
	run("yieldToAll", chain, sim.Config{Kernel: starve, Yield: sim.YieldToAll, Seed: 1})
	// yieldToRandom also survives this adaptive adversary in our engine
	// (each yield has a 1/(P-1) chance of targeting the starved worker),
	// just more slowly — the theorems only PROVE it sufficient against
	// oblivious adversaries.
	run("yieldToRandom (adaptive)", chain, sim.Config{Kernel: starve, Yield: sim.YieldToRandom, Seed: 1})
	run("no yield (adaptive)", chain, sim.Config{Kernel: starve, Yield: sim.YieldNone, Seed: 1})

	fixed := sim.FixedSetKernel{NumProcs: p, Set: []int{1, 2, 3, 4}}
	run("yieldToRandom", chain, sim.Config{Kernel: fixed, Yield: sim.YieldToRandom, Seed: 1})
	run("no yield (oblivious)", chain, sim.Config{Kernel: fixed, Yield: sim.YieldNone, Seed: 1})

	tb.Render(w)
}

// E9Potential reproduces the potential-function machinery: Lemma 7's balls
// and weighted bins bound (Monte Carlo) and Lemma 8's per-phase potential
// drop statistics.
func E9Potential(w io.Writer) {
	rng := rand.New(rand.NewSource(9))
	tb := table.New("E9a: Lemma 7 Monte Carlo (beta = 1/2, bound = 1 - 2/e = 0.264)",
		"bins", "weights", "Pr[X >= W/2]", "bound")
	for _, n := range []int{8, 64} {
		uniform := make([]float64, n)
		skewed := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1
			skewed[i] = 1 / float64(i+1)
		}
		tb.Row(n, "uniform", analysis.BallsInBinsEstimate(uniform, 0.5, 20000, rng), analysis.Lemma7Bound(0.5))
		tb.Row(n, "1/i", analysis.BallsInBinsEstimate(skewed, 0.5, 20000, rng), analysis.Lemma7Bound(0.5))
	}
	tb.Render(w)

	tb2 := table.New("E9b: Lemma 8 phase statistics (dedicated, P=8; success = drop >= 1/4, proven Pr > 1/4)",
		"workload", "phases", "success rate", "mean log-drop", "monotone")
	for _, spec := range Graphs() {
		g := spec.Build()
		tr := analysis.NewPotentialTracker(g.CriticalPath())
		res := sim.NewEngine(sim.Config{Graph: g, P: 8,
			Kernel: sim.DedicatedKernel{NumProcs: 8}, Seed: 23, Observer: tr}).Run()
		if !res.Completed {
			panic("E9 run incomplete")
		}
		st := analysis.AnalyzePhases(tr.Points, 8)
		tb2.Row(spec.Name, st.Phases, st.SuccessRate(), st.MeanLogDrop, st.NeverIncreased)
	}
	tb2.Render(w)
}

// E10Structural verifies the structural lemma (Lemma 3 / Corollary 4) at
// every instruction of runs across kernels and spawn policies.
func E10Structural(w io.Writer) {
	tb := table.New("E10: structural lemma checked at every instruction",
		"workload", "kernel", "policy", "states checked", "violations")
	for _, spec := range Graphs()[:4] {
		g := spec.Build()
		for _, c := range []struct {
			name string
			k    sim.Kernel
			y    sim.YieldKind
			pol  sim.SpawnPolicy
		}{
			{"dedicated", sim.DedicatedKernel{NumProcs: 4}, sim.YieldNone, sim.RunChild},
			{"benign", sim.BenignKernel{NumProcs: 4}, sim.YieldNone, sim.RunParent},
			{"adaptive", sim.StarveWorkersKernel{NumProcs: 4}, sim.YieldToAll, sim.RunChild},
		} {
			chk := analysis.NewStructuralChecker(g.CriticalPath())
			res := sim.NewEngine(sim.Config{Graph: g, P: 4, Kernel: c.k, Yield: c.y,
				Policy: c.pol, Seed: 13, Observer: chk}).Run()
			if !res.Completed {
				panic("E10 run incomplete")
			}
			tb.Row(spec.Name, c.name, c.pol.String(), chk.Checks, len(chk.Violations))
			if !chk.Ok() {
				fmt.Fprintf(w, "VIOLATIONS in %s/%s: %v\n", spec.Name, c.name, chk.Violations)
			}
		}
	}
	tb.Render(w)
}

// All runs every simulator-side experiment in order, writing the full
// report to w.
func All(w io.Writer) {
	E1Figure1(w)
	E2Greedy(w)
	E3LowerBound(w)
	E4GreedyBound(w)
	pts := E5Dedicated(w)
	pts = append(pts, E6Adversaries(w)...)
	E7Fit(w, pts)
	E8Ablations(w)
	E9Potential(w)
	E10Structural(w)
	E11RelatedWork(w)
	E12SpeedupVsPA(w)
	E13Schedulers(w)
	E14Space(w)
}

// E11RelatedWork compares the kernel disciplines of the paper's Section 5
// related work — coscheduling (gang scheduling) and static space
// partitioning — against the multiprogrammed kernels, all running the same
// non-blocking work stealer. Work stealing meets its bound under every
// discipline; the differences are in how much service (P_A) each discipline
// actually delivers for the same machine share.
func E11RelatedWork(w io.Writer) {
	tb := table.New("E11: related-work kernel disciplines (P=8, ~1/4 machine share)",
		"workload", "discipline", "steps", "P_A", "normalized")
	const p = 8
	for _, spec := range []workload.Spec{Graphs()[2], Graphs()[3]} { // fib, grid
		g := spec.Build()
		cases := []struct {
			name string
			k    sim.Kernel
			y    sim.YieldKind
		}{
			{"dedicated", sim.DedicatedKernel{NumProcs: p}, sim.YieldNone},
			{"coscheduled 1/4", sim.CoschedulingKernel{NumProcs: p, OnRounds: 1, OffRounds: 3}, sim.YieldNone},
			{"space partition 2", sim.SpacePartitionKernel{NumProcs: p, Avail: 2}, sim.YieldNone},
			{"benign 2", sim.ConstBenign(p, 2), sim.YieldNone},
		}
		for _, c := range cases {
			res, _ := simPoint(g, p, c.k, c.y, 19)
			if !res.Completed {
				panic(fmt.Sprintf("E11 %s/%s did not complete", spec.Name, c.name))
			}
			norm := float64(res.Steps) * res.PA / (float64(g.Work()) + float64(g.CriticalPath()*p))
			tb.Row(spec.Name, c.name, res.Steps, res.PA, norm)
		}
	}
	tb.Render(w)
}

// E12SpeedupVsPA reproduces the canonical Hood measurement: speedup as a
// function of the processor average P_A. The kernel grants avail = 1..P
// processors' worth of service; the work stealer's speedup over its own
// serial execution should track P_A (efficiency near 1) until the
// workload's parallelism saturates. Each row averages several seeds.
func E12SpeedupVsPA(w io.Writer) {
	tb := table.New("E12: speedup vs processor average (fib(16), P=8, mean of 3 seeds)",
		"avail", "P_A", "steps", "speedup", "efficiency (speedup/P_A)")
	const p = 8
	const seeds = 3
	g := workload.FibDag(16)

	serial := 0.0
	for s := int64(0); s < seeds; s++ {
		res := sim.NewEngine(sim.Config{Graph: g, P: 1,
			Kernel: sim.DedicatedKernel{NumProcs: 1}, Seed: 300 + s}).Run()
		serial += float64(res.Steps)
	}
	serial /= seeds

	for avail := 1; avail <= p; avail++ {
		var steps, pa float64
		for s := int64(0); s < seeds; s++ {
			res := sim.NewEngine(sim.Config{Graph: g, P: p,
				Kernel: sim.ConstBenign(p, avail), Seed: 300 + s}).Run()
			if !res.Completed {
				panic("E12 run incomplete")
			}
			steps += float64(res.Steps)
			pa += res.PA
		}
		steps /= seeds
		pa /= seeds
		speedup := serial / steps
		tb.Row(avail, pa, int(steps), speedup, speedup/pa)
	}
	tb.Render(w)
}

// E13Schedulers compares the three offline scheduling disciplines the paper
// situates itself among — lowest-id greedy, level-by-level (Brent), and
// parallel depth-first (Blelloch et al., the Section 5 "open question") —
// under dedicated and multiprogrammed kernel schedules, reporting both time
// and ready-set space.
func E13Schedulers(w io.Writer) {
	tb := table.New("E13: offline scheduler comparison (P=4; len = time, maxReady = space)",
		"workload", "kernel", "greedy len", "brent len", "pdf len", "greedy spc", "brent spc", "pdf spc", "serial spc")
	const p = 4
	rng := rand.New(rand.NewSource(13))
	for _, spec := range Graphs() {
		g := spec.Build()
		serialSpc := offline.PDF(g, offline.Dedicated{NumProcs: 1}, 10*g.Work()+100).MaxReady()
		kernels := map[string]offline.Kernel{
			"dedicated": offline.Dedicated{NumProcs: p},
		}
		prefix := make([]int, 4*g.Work())
		for i := range prefix {
			prefix[i] = rng.Intn(p + 1)
		}
		kernels["random"] = offline.Fixed{NumProcs: p, Prefix: prefix}
		for _, kname := range []string{"dedicated", "random"} {
			k := kernels[kname]
			maxSteps := 100*g.Work() + 1000
			ge := offline.Greedy(g, k, maxSteps)
			be := offline.Brent(g, k, maxSteps)
			pe := offline.PDF(g, k, maxSteps)
			tb.Row(spec.Name, kname, ge.Length(), be.Length(), pe.Length(),
				ge.MaxReady(), be.MaxReady(), pe.MaxReady(), serialSpc)
		}
	}
	tb.Render(w)
}

// E14Space checks the space behaviour of the work stealer itself: for the
// fully strict fib dag, the maximum total deque occupancy should stay
// within S1 * P (Blumofe-Leiserson, the paper's reference [8]), where S1 is
// the occupancy of the serial execution.
func E14Space(w io.Writer) {
	tb := table.New("E14: work-stealer space vs S1*P (fib(16), dedicated)",
		"P", "max space", "S1", "S1*P", "space/(S1*P)")
	g := workload.FibDag(16)
	s1 := 0
	for _, p := range []int{1, 2, 4, 8, 16} {
		st := &analysis.SpaceTracker{}
		res := sim.NewEngine(sim.Config{Graph: g, P: p,
			Kernel: sim.DedicatedKernel{NumProcs: p}, Seed: 41, Observer: st}).Run()
		if !res.Completed {
			panic("E14 run incomplete")
		}
		if p == 1 {
			s1 = st.Max
		}
		tb.Row(p, st.Max, s1, s1*p, float64(st.Max)/float64(s1*p))
	}
	tb.Render(w)
}
