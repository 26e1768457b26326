package sim

import (
	"fmt"
	"math/rand"

	"worksteal/internal/dag"
)

// YieldKind selects the yield discipline used between steal attempts.
type YieldKind uint8

const (
	// YieldNone performs no yield system call (line 15 removed); sufficient
	// against the benign adversary (Theorem 10).
	YieldNone YieldKind = iota
	// YieldToRandom yields to a uniformly random other process: the kernel
	// cannot schedule the yielder again until that process has been
	// scheduled; sufficient against the oblivious adversary (Theorem 11).
	YieldToRandom
	// YieldToAll yields to every other process: the kernel cannot schedule
	// the yielder again until every other process has been scheduled;
	// sufficient against the adaptive adversary (Theorem 12).
	YieldToAll
)

func (y YieldKind) String() string {
	switch y {
	case YieldNone:
		return "none"
	case YieldToRandom:
		return "yieldToRandom"
	case YieldToAll:
		return "yieldToAll"
	default:
		return fmt.Sprintf("YieldKind(%d)", uint8(y))
	}
}

// DequeKind selects the deque implementation processes use.
type DequeKind uint8

const (
	// DequeABP is the paper's non-blocking deque (Figure 5).
	DequeABP DequeKind = iota
	// DequeLocked is the blocking baseline: one spinlock per deque.
	DequeLocked
	// DequeLazy is lazy exposure (lazydeque.go): the ABP deque beneath a
	// private region of Config.LazyK pushes, published on a thief's
	// request — internal/sched's policy.
	DequeLazy
)

func (d DequeKind) String() string {
	switch d {
	case DequeLocked:
		return "locked"
	case DequeLazy:
		return "lazy"
	}
	return "abp"
}

// VictimPolicy selects how thieves choose their victims.
type VictimPolicy uint8

const (
	// VictimRandom picks victims uniformly at random (the paper's choice;
	// the analysis depends on it through the balls-and-bins argument).
	VictimRandom VictimPolicy = iota
	// VictimRoundRobin cycles deterministically through the other
	// processes: the ablation for design choice 5 in DESIGN.md. Correct,
	// but the analysis's ball-toss argument no longer applies.
	VictimRoundRobin
)

func (v VictimPolicy) String() string {
	if v == VictimRoundRobin {
		return "roundRobin"
	}
	return "random"
}

// SpawnPolicy selects which of two enabled children becomes the new
// assigned node (Section 3.1 notes the bounds hold for either choice).
type SpawnPolicy uint8

const (
	// RunChild assigns the target of the non-continuation enabling edge
	// (the freshly spawned or newly awakened thread) and pushes the
	// continuation; this is the depth-first order used by Cilk and lazy
	// task creation.
	RunChild SpawnPolicy = iota
	// RunParent assigns the continuation and pushes the other child.
	RunParent
)

func (s SpawnPolicy) String() string {
	if s == RunParent {
		return "runParent"
	}
	return "runChild"
}

// MilestoneC is the measured bound on instructions between consecutive
// milestones of a process running the ABP scheduling loop (checkDone +
// popBottom's at most 7 instructions + checkDone + yield + popTop's at most
// 4 instructions is the longest milestone-free stretch, at 13; one spare).
// Rounds give each scheduled process between 2C and 3C instructions.
const MilestoneC = 14

// Config describes one simulation run.
type Config struct {
	Graph  *dag.Graph
	P      int
	Kernel Kernel
	Yield  YieldKind
	Deque  DequeKind
	// LazyK bounds DequeLazy's private region; 0 means 4, internal/sched's
	// bound.
	LazyK int
	// TagBits is the effective tag width of the ABP deques: 32 (default
	// via NewEngine) is realistic; 0 disables the tag and exposes the ABA
	// failure.
	TagBits int
	Policy  SpawnPolicy
	// Victim selects the victim-selection policy (default VictimRandom).
	Victim VictimPolicy
	Seed   int64
	// MaxRounds aborts runs that make no progress (starvation adversaries
	// without the required yield); 0 means a generous default.
	MaxRounds int
	// InstrLo and InstrHi bound the per-round instruction budget; defaults
	// are 2*MilestoneC and 3*MilestoneC.
	InstrLo, InstrHi int
	// ShuffleSteps randomizes the within-step order in which scheduled
	// processes execute their instruction (the kernel's "arbitrary manner").
	ShuffleSteps bool
	// Observer, if non-nil, is invoked at every round boundary and after
	// every instruction.
	Observer Observer
}

// Observer receives engine callbacks for analysis instrumentation.
type Observer interface {
	// OnRoundStart is called before each round executes, with the round
	// number about to run.
	OnRoundStart(e *Engine, round int)
	// OnInstruction is called after every instruction, identifying the
	// process that executed it.
	OnInstruction(e *Engine, proc int)
}

// Result reports the outcome and statistics of a run.
type Result struct {
	// Completed is false when MaxRounds elapsed before the final node
	// executed (the starvation outcome).
	Completed bool
	// Rounds and Steps measure execution time: Steps is the number of
	// kernel steps (the paper's time unit), Rounds the number of rounds.
	Rounds int
	Steps  int
	// ProcInstr is the total number of instructions executed, i.e. the sum
	// over steps of the number of processes scheduled at that step.
	ProcInstr int64
	// PA is the processor average over the execution: ProcInstr / Steps.
	PA float64
	// NodesExecuted counts executed dag nodes (equals T1 on completion).
	NodesExecuted int
	StealAttempts int
	Steals        int
	Throws        int
	Yields        int
	// Substitutions counts kernel choices overridden by yield constraints.
	Substitutions int
	// CASFailures counts failed CAS instructions across all ABP deques.
	CASFailures int
	// SpinSteps counts instructions burned spinning on deque locks.
	SpinSteps int
	// Fences counts the stores and CASes the ABP and lazy deques made on
	// words other processes read: pushBottom's slot and bot, popBottom's
	// bot and its last-item CAS and resets, popTop's CAS, and the lazy
	// deque's request flag. PrivateOps counts the lazy deque's pushes and
	// pops that stayed in the region and made none.
	Fences, PrivateOps int
	// Corruptions counts nodes observed executed twice; nonzero only when
	// the tag is artificially narrowed (the ABA demonstration).
	Corruptions int
	// MaxMilestoneGap is the largest observed instruction gap between
	// consecutive milestones of any process (empirically <= MilestoneC for
	// the ABP deque).
	MaxMilestoneGap int
	// NodesPerProc is the work distribution: how many nodes each process
	// executed.
	NodesPerProc []int
}

// Engine runs one simulation.
type Engine struct {
	cfg    Config
	g      *dag.Graph
	state  *dag.State
	procs  []*process
	kernel Kernel
	rng    *rand.Rand
	view   *View

	done         bool
	doneAtStep   int
	doneAtInstr  int64
	doneInstrSet bool
	doneAtRound  int
	curRound     int
	lastExec     dag.NodeID // most recently executed node (for observers)

	// owed[p] is the set of processes that must be scheduled before p may
	// be scheduled again, per the yield discipline.
	owed []map[int]bool
	// yieldRng drives victim selection and yield targets.
	steps         int
	procInstr     int64
	substitutions int
	corruptions   int
}

// NewEngine validates cfg, applies defaults, and builds an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Graph == nil {
		panic("sim: Config.Graph is nil")
	}
	if cfg.P < 1 {
		panic(fmt.Sprintf("sim: P = %d", cfg.P))
	}
	if cfg.Kernel == nil {
		panic("sim: Config.Kernel is nil")
	}
	if cfg.Kernel.P() != cfg.P {
		panic(fmt.Sprintf("sim: kernel P %d != config P %d", cfg.Kernel.P(), cfg.P))
	}
	if cfg.TagBits == 0 {
		// Note: an explicit ABA demonstration passes TagBits = -1.
		cfg.TagBits = 32
	}
	if cfg.TagBits == -1 {
		cfg.TagBits = 0
	}
	if cfg.InstrLo == 0 {
		cfg.InstrLo = 2 * MilestoneC
	}
	if cfg.InstrHi == 0 {
		cfg.InstrHi = 3 * MilestoneC
	}
	if cfg.InstrLo < 1 || cfg.InstrHi < cfg.InstrLo {
		panic(fmt.Sprintf("sim: bad instruction budget [%d,%d]", cfg.InstrLo, cfg.InstrHi))
	}
	if cfg.LazyK == 0 {
		cfg.LazyK = 4
	}
	if cfg.LazyK < 0 {
		panic(fmt.Sprintf("sim: LazyK = %d", cfg.LazyK))
	}
	if cfg.MaxRounds == 0 {
		// Generous default: enough rounds for the whole computation to run
		// serially several times over, scaled by P so tiny graphs with many
		// processes still fit.
		cfg.MaxRounds = 100*cfg.Graph.NumNodes() + 1000*cfg.P + 10000
	}
	e := &Engine{
		cfg:    cfg,
		g:      cfg.Graph,
		state:  dag.NewState(cfg.Graph),
		kernel: cfg.Kernel,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		owed:   make([]map[int]bool, cfg.P),
	}
	e.view = &View{e: e}
	cap := cfg.Graph.NumNodes() + 1
	for i := 0; i < cfg.P; i++ {
		var d dequeOps
		switch cfg.Deque {
		case DequeLocked:
			d = newLockDeque(cap)
		case DequeLazy:
			d = newLazyDeque(cap, cfg.TagBits, cfg.LazyK)
		default:
			d = newABPDeque(cap, cfg.TagBits)
		}
		e.procs = append(e.procs, &process{id: i, deque: d, assigned: dag.None, next: dag.None})
	}
	// The root node is assigned to process zero (Figure 3, lines 1-3).
	e.procs[0].assigned = cfg.Graph.Root()
	return e
}

// drainRounds bounds how many rounds the engine keeps simulating after the
// final node executes, so the remaining processes can observe the
// computationDone flag and halt (Figure 3's loop exit). Kernels that never
// schedule some process would otherwise keep the drain alive forever.
const drainRounds = 8

// Run executes the simulation until the final node executes (plus a short
// drain during which the other processes observe the done flag and halt) or
// until MaxRounds elapse, and returns the statistics. All time-like
// statistics (Steps, ProcInstr, PA) are measured at the moment the final
// node executed, as in the paper's bounds.
//
//abp:owner the single-threaded engine goroutine owns every simulated deque
func (e *Engine) Run() Result {
	slots := make([]Slot, 0, e.cfg.P)
	order := make([]int, 0, e.cfg.P)
	doneRound := -1
	for round := 0; round < e.cfg.MaxRounds; round++ {
		if e.allHalted() {
			break
		}
		if e.done {
			if doneRound == -1 {
				doneRound = round
			}
			if round-doneRound >= drainRounds {
				break
			}
		}
		e.curRound = round
		if e.cfg.Observer != nil {
			e.cfg.Observer.OnRoundStart(e, round)
		}
		slots = e.planRound(round, slots[:0])
		if len(slots) == 0 {
			// The kernel scheduled nobody: a round's worth of wall-clock
			// steps passes with no instructions executed.
			e.steps += e.cfg.InstrLo
			continue
		}
		for i := range slots {
			e.procs[slots[i].Proc].msRound = 0
		}
		// Interleave: at each step every scheduled process with remaining
		// budget executes one instruction, in ascending or shuffled order.
		remaining := len(slots)
		for remaining > 0 {
			e.steps++
			order = order[:0]
			for i := range slots {
				if slots[i].Instr > 0 {
					order = append(order, i)
				}
			}
			if e.cfg.ShuffleSteps {
				e.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			}
			for _, i := range order {
				p := e.procs[slots[i].Proc]
				if p.phase == phHalted {
					slots[i].Instr = 0
					remaining--
					continue
				}
				p.step(e)
				e.procInstr++
				if e.cfg.Observer != nil {
					e.cfg.Observer.OnInstruction(e, p.id)
				}
				slots[i].Instr--
				if slots[i].Instr == 0 || p.phase == phHalted {
					slots[i].Instr = 0
					remaining--
				}
			}
			if e.done && !e.doneInstrSet {
				e.doneAtInstr = e.procInstr
				e.doneInstrSet = true
			}
		}
	}
	return e.result()
}

// allHalted reports whether every process has observed termination.
func (e *Engine) allHalted() bool {
	for _, p := range e.procs {
		if p.phase != phHalted {
			return false
		}
	}
	return true
}

func (e *Engine) result() Result {
	r := Result{
		Completed:     e.done,
		Rounds:        e.doneAtRound,
		Steps:         e.steps,
		ProcInstr:     e.procInstr,
		NodesExecuted: e.state.NumExecuted(),
		Substitutions: e.substitutions,
		Corruptions:   e.corruptions,
	}
	if e.done {
		// Time-like measurements stop the moment the final node executed;
		// the drain (processes observing the flag and halting) is excluded.
		r.Steps = e.doneAtStep
		r.ProcInstr = e.doneAtInstr
	} else {
		r.Rounds = e.curRound + 1
	}
	if r.Steps > 0 {
		r.PA = float64(r.ProcInstr) / float64(r.Steps)
	}
	r.NodesPerProc = make([]int, len(e.procs))
	for i, p := range e.procs {
		r.NodesPerProc[i] = p.nodesExecuted
		r.StealAttempts += p.stealAttempts
		r.Steals += p.steals
		r.Throws += p.throws
		r.Yields += p.yields
		if p.maxMilestoneGap > r.MaxMilestoneGap {
			r.MaxMilestoneGap = p.maxMilestoneGap
		}
		switch d := p.deque.(type) {
		case *abpDeque:
			r.CASFailures += d.casFailures
			r.Fences += d.fences
		case *lazyDeque:
			r.CASFailures += d.pub.casFailures
			r.Fences += d.fences()
			r.PrivateOps += d.privateOps
		case *lockDeque:
			r.SpinSteps += d.spinSteps
		}
	}
	return r
}

// planRound obtains the kernel's choices for the round, sanitizes them, and
// applies yield constraints.
func (e *Engine) planRound(round int, slots []Slot) []Slot {
	raw := e.kernel.PlanRound(round, e.view, e.rng)
	seen := make(map[int]bool, len(raw))
	for _, s := range raw {
		if s.Proc < 0 || s.Proc >= e.cfg.P || seen[s.Proc] {
			continue // ignore malformed kernel output
		}
		if e.procs[s.Proc].phase == phHalted {
			continue
		}
		if s.Instr < e.cfg.InstrLo {
			s.Instr = e.cfg.InstrLo
		}
		if s.Instr > e.cfg.InstrHi {
			s.Instr = e.cfg.InstrHi
		}
		seen[s.Proc] = true
		slots = append(slots, s)
	}
	slots = e.enforceYields(slots)
	// End-of-round bookkeeping happens up front: every process scheduled
	// this round satisfies pending constraints of other processes.
	for i := range slots {
		q := slots[i].Proc
		for p := range e.owed {
			delete(e.owed[p], q)
		}
	}
	return slots
}

// enforceYields replaces illegally scheduled processes with processes they
// owe a slot to, mirroring the paper's "we schedule process q in place of
// p". The number of scheduled processes never changes.
func (e *Engine) enforceYields(slots []Slot) []Slot {
	if e.cfg.Yield == YieldNone {
		return slots
	}
	inRound := make(map[int]bool, len(slots))
	for _, s := range slots {
		inRound[s.Proc] = true
	}
	out := slots[:0]
	for _, s := range slots {
		// A constraint is satisfied by processes scheduled at any round in
		// (yield, now], including processes co-scheduled in THIS round, so
		// owed processes that are already in the round don't block s.Proc.
		sub := -1
		for q := 0; q < e.cfg.P; q++ {
			if e.owed[s.Proc][q] && !inRound[q] && e.procs[q].phase != phHalted {
				sub = q
				break
			}
		}
		if sub == -1 {
			// No unmet owed process: s.Proc is legally scheduled.
			out = append(out, s)
			continue
		}
		// Substitute the lowest-id unmet owed process for s.Proc, exactly
		// as in the paper: "we schedule process q in place of p".
		e.substitutions++
		inRound[sub] = true
		delete(inRound, s.Proc)
		out = append(out, Slot{Proc: sub, Instr: s.Instr})
	}
	return out
}

// applyYield records the constraint created by process p's yield call.
func (e *Engine) applyYield(p *process) {
	switch e.cfg.Yield {
	case YieldNone:
		return
	case YieldToRandom:
		q := e.randomOther(p.id)
		if q >= 0 {
			e.owed[p.id] = map[int]bool{q: true}
		}
	case YieldToAll:
		owed := make(map[int]bool, e.cfg.P-1)
		for q := 0; q < e.cfg.P; q++ {
			if q != p.id && e.procs[q].phase != phHalted {
				owed[q] = true
			}
		}
		e.owed[p.id] = owed
	}
	p.yields++
}

// randomOther returns a uniformly random non-halted process other than p,
// or -1 if none exists.
func (e *Engine) randomOther(p int) int {
	alive := 0
	for q := 0; q < e.cfg.P; q++ {
		if q != p && e.procs[q].phase != phHalted {
			alive++
		}
	}
	if alive == 0 {
		return -1
	}
	k := e.rng.Intn(alive)
	for q := 0; q < e.cfg.P; q++ {
		if q != p && e.procs[q].phase != phHalted {
			if k == 0 {
				return q
			}
			k--
		}
	}
	return -1
}

// pickVictim picks the next victim for a thief per the configured policy
// (Figure 3 line 16 uses the random policy). Halted processes remain valid
// victims: their deques are simply empty. With P = 1 the process targets
// its own (empty) deque, which always fails; a one-process computation
// never reaches this state with work outstanding.
func (e *Engine) pickVictim(p *process) int {
	if e.cfg.P == 1 {
		return p.id
	}
	if e.cfg.Victim == VictimRoundRobin {
		p.rrVictim++
		v := p.rrVictim % (e.cfg.P - 1)
		if v >= p.id {
			v++
		}
		return v
	}
	v := e.rng.Intn(e.cfg.P - 1)
	if v >= p.id {
		v++
	}
	return v
}

// executeNode executes node u on behalf of process p and returns the
// enabled children. A node observed already executed indicates deque
// corruption (only possible with a narrowed tag); it is counted and skipped.
func (e *Engine) executeNode(p *process, u dag.NodeID) []dag.NodeID {
	if e.state.Executed(u) {
		e.corruptions++
		return nil
	}
	enabled := e.state.Execute(u)
	e.lastExec = u
	p.nodesExecuted++
	if u == e.g.Final() {
		e.done = true
		e.doneAtStep = e.steps
		e.doneAtRound = e.curRound + 1
		// doneAtInstr is set when the current step completes, so that the
		// instructions of processes co-scheduled at this step all count
		// (the paper's P_A sums every process scheduled at a step).
	}
	return enabled
}

// chooseChild applies the spawn policy to two enabled children of node u,
// returning (keep, push): keep becomes the assigned node, push goes to the
// bottom of the deque.
func (e *Engine) chooseChild(u dag.NodeID, c0, c1 dag.NodeID) (keep, push dag.NodeID) {
	k0 := enablingKind(e.g, u, c0)
	k1 := enablingKind(e.g, u, c1)
	// Identify the "child" (non-continuation target) when unambiguous.
	childIdx := -1
	if k0 != dag.Continuation && k1 == dag.Continuation {
		childIdx = 0
	} else if k1 != dag.Continuation && k0 == dag.Continuation {
		childIdx = 1
	}
	if childIdx == -1 {
		// Ambiguous (both continuations cannot happen; both non-continuation
		// is possible for exotic dags): fall back to enabling order.
		childIdx = 0
	}
	child, other := c0, c1
	if childIdx == 1 {
		child, other = c1, c0
	}
	if e.cfg.Policy == RunChild {
		return child, other
	}
	return other, child
}

// enablingKind returns the kind of the edge u -> v.
func enablingKind(g *dag.Graph, u, v dag.NodeID) dag.EdgeKind {
	for _, edge := range g.Succs(u) {
		if edge.To == v {
			return edge.Kind
		}
	}
	panic(fmt.Sprintf("sim: no edge %d -> %d", u, v))
}

// onHalt removes a halted process from every yield-constraint set so no
// live process waits forever on a dead one.
func (e *Engine) onHalt(p *process) {
	for q := range e.owed {
		delete(e.owed[q], p.id)
	}
}
