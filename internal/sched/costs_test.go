package sched

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"text/tabwriter"
	"time"
)

// The cost table, testdata/costs.golden (DESIGN.md §7, "The cost table"):
// each engine operation's objects and bytes and, under -tags abpsync, its
// loads, stores and RMWs, exactly. -update rewrites the file and its
// copies from the build that runs; run it in both builds.
var update = flag.Bool("update", false, "rewrite testdata/costs.golden and its copies in DESIGN.md and README.md from this build's counts")

const costsGolden = "testdata/costs.golden"

var costHeader = []string{"operation", "workers", "objects", "bytes", "loads", "stores", "RMWs", "fences"}

// cost is what a window counts, a column each: objects and bytes from
// runtime.MemStats, loads, stores and RMWs from atomicx (zero outside the
// counting build).
type cost [5]int64

const (
	colLoads, colStores, colRMWs = 2, 3, 4
	syncCols                     = 1<<colLoads | 1<<colStores | 1<<colRMWs
	idleRoundLoads               = 6 // phase, status, deque, injector, and the steal with no victim
)

// Where a row's operations run.
const (
	inTask      = iota // a task under a fork that holds the public deque, so that the region (lazy.go) takes the forks below
	atRoot             // the root task, whose forks are public and signalled
	atCaller           // the test goroutine, between sessions
	serving            // the test goroutine, while the pool serves
	servingFull        // the same, the injector full behind a root that holds the worker
)

// costEnv is what a row's functions work on: its pool, the worker its
// operations run on, the one that parks and wakes, and prep's snapshot of
// that one's parks.
type costEnv struct {
	t        *testing.T
	p        *Pool
	w, other *Worker
	g        Group
	parks    int64
}

// A costRow prices one operation: its windows' sum per window, after three
// that stock the lists, the goroutines and the run records. A window is
// prep, outside it, and do, in it, which makes the event the row prices —
// a steal, a park, a blocked wait — certain by a handshake before it
// returns. A window that steals other than steals times is run again.
type costRow struct {
	op                       string
	workers, at, procs, runs int // procs: GOMAXPROCS, if not one
	cfg                      Config
	prep, do                 func(e *costEnv) // prep may be nil
	steals                   int64            // each window's; -1: the schedule's
	idle                     bool             // leave out the idle rounds, one RMW each (the yield's count), whose number is the scheduler's
	free                     int              // the columns the schedule decides, a bit each: not golden
	by                       string           // the test that measures the row, if not TestCostTable
}

// stockWaitRecords fills the processor's cache of sudogs, the runtime's
// records of blocked channel operations, which it allocates when the cache
// is empty: a rare window that blocks more goroutines than any before it
// would count one. No row blocks 32.
func stockWaitRecords() {
	var wg sync.WaitGroup
	ch := make(chan struct{})
	for range 32 {
		wg.Add(1)
		go func() { defer wg.Done(); <-ch }()
	}
	time.Sleep(time.Millisecond) // on one processor: every goroutine gets to block
	close(ch)
	wg.Wait()
}

// measure prices row on a new pool, on one processor unless the row says
// otherwise, with the collector off.
func (row costRow) measure(e *costEnv) (c cost) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(row.procs, 1)))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stockWaitRecords()
	row.cfg.Workers = row.workers
	p := New(row.cfg)
	e.p, e.w, e.other = p, p.workers[0], p.workers[row.workers-1]
	runs := max(row.runs, 1)
	windows := func() {
		var m runtime.MemStats // the whole process's counters; reading them into m allocates nothing
		counts := func() cost {
			runtime.ReadMemStats(&m)
			s := syncOps()
			return cost{int64(m.Mallocs), int64(m.TotalAlloc), s[0], s[1], s[2]}
		}
		for i, missed := -3, 0; i < runs; {
			if row.prep != nil {
				row.prep(e)
			}
			s := p.Stats()
			before := counts()
			row.do(e)
			d := counts()
			after := p.Stats()
			if steals := after.Steals - s.Steals; row.steals >= 0 && steals != row.steals {
				// On two workers, a host that takes the processor's thread
				// away for a time slice lets the other worker steal the
				// root or a piece: a Run the row does not price.
				if missed++; missed == 5 {
					e.t.Errorf("%s on %d workers: 5 windows in a row stole %d times, want %d", row.op, row.workers, steals, row.steals)
					return
				}
				continue
			}
			if missed, i = 0, i+1; i <= 0 {
				continue
			}
			if row.idle && countingBuild {
				idle := after.Yields - s.Yields
				d[colRMWs] -= idle
				d[colLoads] -= idleRoundLoads * idle
			}
			for j := range c {
				c[j] += d[j] - before[j]
			}
		}
	}
	switch row.at {
	case inTask:
		p.Run(func(w *Worker) {
			Join2(w, func(*Worker) int { return 1 }, func(c *Worker) int { e.w = c; windows(); return 1 })
		})
	case atRoot:
		p.Run(func(w *Worker) { e.w, e.other = w, p.workers[1-w.id]; windows() })
	case atCaller:
		windows()
	default:
		stop := startServing(e.t, p)
		hold, running := make(chan struct{}), make(chan struct{})
		if row.at == servingFull {
			if _, err := p.Submit(func(*Worker) { close(running); <-hold }); err != nil {
				e.t.Fatalf("Submit: %v", err)
			}
			<-running
			for _, err := p.Submit(func(*Worker) {}); err == nil; _, err = p.Submit(func(*Worker) {}) {
			}
		}
		windows()
		close(hold)
		if err := stop(); !errors.Is(err, context.Canceled) {
			e.t.Fatalf("Serve returned %v", err)
		}
	}
	for j := range c {
		if c[j]%int64(runs) != 0 && row.free&(1<<j) == 0 {
			e.t.Errorf("%s on %d workers: %s %d over %d windows is not a whole count each", row.op, row.workers, costHeader[2+j], c[j], runs)
		}
		c[j] /= int64(runs)
	}
	return c
}

// parked waits, outside the window, until e.other has parked, and
// snapshots its parks. The count is the last operation a park counts
// before it blocks: the select it then blocks in counts nothing and, with
// the sudog cache stocked, allocates nothing, and a token sent before it
// blocks is taken at once, by the same operations.
func parked(e *costEnv) {
	spinUntil(e.t, "the other worker to park", func() bool { return e.other.status.Load() == workerIdle && e.other.parks.Load() > 0 })
	e.parks = e.other.parks.Load()
}

// reparked waits, in the window, until e.other has parked once more since
// parked: it woke, took what the window gave it and parked again.
func reparked(e *costEnv) {
	spinUntil(e.t, "the other worker to park again", func() bool {
		return e.other.status.Load() == workerIdle && e.other.parks.Load() == e.parks+1
	})
}

// stealAndBlock runs a Join2 and a two-leaf Reduce on w. With force set,
// each fork is stolen and each join blocks: the inline half spins until the
// fork has started on another worker, and the fork spins until its joiner
// has installed its token in the fork's completion word — the records on
// top of w's lists, which the forks take.
func stealAndBlock(t *testing.T, w *Worker, force bool) int {
	var f *Future[int]
	if w.nFutures > 0 {
		f, _ = w.futures[w.nFutures-1].(*Future[int])
	}
	var r *rangeTask[int]
	if w.nRanges > 0 {
		r, _ = w.ranges[w.nRanges-1].(*rangeTask[int])
	}
	blocked := func(ch *waitWord) func() bool {
		return func() bool { return ch == nil || ch.p.Load() != nil }
	}
	var fStarted, rStarted atomic.Bool
	a, b := Join2(w, func(*Worker) int {
		fStarted.Store(true)
		if force && f != nil {
			spinUntil(t, "the Join2 joiner to block", blocked(&f.ch))
		}
		return 1
	}, func(*Worker) int {
		if force {
			spinUntil(t, "the Join2 fork to be stolen", fStarted.Load)
		}
		return 2
	})
	sum := Reduce(w, 0, 2, 1, func(i int) int {
		if i == 1 {
			rStarted.Store(true)
			if force && r != nil {
				spinUntil(t, "the Reduce joiner to block", blocked(&r.ch))
			}
		} else if force {
			spinUntil(t, "the Reduce fork to be stolen", rStarted.Load)
		}
		return i + 3
	}, func(x, y int) int { return x + y })
	return a + b + sum
}

// costRows is the table, row by row.
func costRows(e *costEnv) []costRow {
	one := func(*Worker) int { return 1 }
	str := func(*Worker) string { return "1" }
	nop := func(*Worker) {}
	ident := func(i int) int { return i }
	add := func(a, b int) int { return a + b }
	joinLeaf := func(int) int { return add(Join2(e.w, one, one)) }
	// A task's window starts with its worker's counts flushed: the flush of
	// every callFlushPeriod-th popped-back call is the whole-run rows'.
	flushed := func(e *costEnv) { e.w.flush() }
	in := func(op string, do func(e *costEnv)) costRow {
		return costRow{op: op, workers: 1, at: inTask, runs: 100, prep: flushed, do: do}
	}
	// A Run steals nothing, but where the row forces steals: a steal hands
	// records to the thief's lists, which start empty, and a window on two
	// workers that steals otherwise is run again. A nil root is an empty
	// RunContext.
	run := func(op string, workers int, steals int64, root func(*Worker)) costRow {
		row := costRow{op: op, workers: workers, at: atCaller, runs: 3, steals: steals, idle: true,
			do: func(e *costEnv) { e.p.Run(root) }}
		if root == nil {
			row.do = func(e *costEnv) { _ = e.p.RunContext(context.Background(), nop) }
		}
		if workers > 1 {
			row.free = syncCols
		}
		return row
	}
	fib := func(n int) func(*Worker) {
		want := fibSerial(n)
		return func(w *Worker) {
			if got := fibPar(w, n, 2); got != want {
				e.t.Errorf("fib(%d) = %d, want %d", n, got, want)
			}
		}
	}
	reduce := func(w *Worker) {
		if got := Reduce(w, 0, 512, 1, ident, add); got != 512*511/2 {
			e.t.Errorf("a Reduce over 512 leaves computed %d, want %d", got, 512*511/2)
		}
	}
	stealRoot := func(w *Worker) {
		if got := stealAndBlock(e.t, w, len(e.p.workers) > 1); got != 10 {
			e.t.Errorf("stealAndBlock computed %d, want 10", got)
		}
	}
	// Two workers, the other parked: its wake, the steal, a wait that
	// blocks on what it stole, and its next park. One: a submission to the
	// parked worker, through to its next park. The polls load.
	wake := func(op string, at int, steals int64, do func(e *costEnv)) costRow {
		return costRow{op: op, workers: map[int]int{atRoot: 2, serving: 1}[at], at: at, runs: 3, steals: steals,
			free: 1 << colLoads, prep: parked, do: func(e *costEnv) { do(e); reparked(e) }}
	}
	// The fork spins until its joiner's token is in the word of the Future
	// on top of e.w's list, which the fork takes, and the inline half until
	// the fork is stolen: stealAndBlock's handshake, on closures made once.
	var forked atomic.Bool
	var top *Future[int]
	fork := func(*Worker) int {
		forked.Store(true)
		spinUntil(e.t, "the Join2 joiner to block", func() bool { return top == nil || top.ch.p.Load() != nil })
		return 1
	}
	inline := func(*Worker) int { spinUntil(e.t, "the Join2 fork to be stolen", forked.Load); return 2 }
	stolenJoin2 := wake("stolen `Join2`, its join blocked", atRoot, 1, func(e *costEnv) {
		if a, b := Join2(e.w, fork, inline); a+b != 3 {
			e.t.Errorf("a stolen Join2 computed %d and %d, want 1 and 2", a, b)
		}
	})
	stolenJoin2.prep = func(e *costEnv) {
		parked(e)
		forked.Store(false)
		top = nil
		if e.w.nFutures > 0 {
			top, _ = e.w.futures[e.w.nFutures-1].(*Future[int])
		}
	}
	// A fork in the region (lazy.go) leaves it only on request: the woken
	// worker steals the public fork, misses the owner's empty public part
	// and asks, and the owner's next fork publishes the private one, which
	// it then waits to see stolen and ended, so that its join finds it done.
	// The inner Join2 takes the second Future of e.w's list. The closures
	// are made once.
	var publicRan atomic.Bool
	var private *Future[int]
	public := func(*Worker) int { publicRan.Store(true); return 1 }
	asked := func() bool { return publicRan.Load() && e.w.wantWork.Load() != 0 }
	ended := func() bool { return private == nil || private.Done() }
	expose := func(c *Worker) int {
		spinUntil(e.t, "the thief to ask for the region", asked)
		Join2(c, one, one) // its fork publishes the region
		spinUntil(e.t, "the private fork to be stolen and end", ended)
		return 1
	}
	inner := func(c *Worker) int { x, y := Join2(c, one, expose); return x + y }
	stolenPrivate := wake("a private `Join2` fork stolen on request", atRoot, 2, func(e *costEnv) {
		if a, b := Join2(e.w, public, inner); a+b != 3 {
			e.t.Errorf("a Join2 whose private fork was stolen computed %d and %d, want 1 and 2", a, b)
		}
	})
	stolenPrivate.prep = func(e *costEnv) {
		parked(e)
		publicRan.Store(false)
		e.w.wantWork.Store(0) // the parked worker's last miss asked
		private = nil
		if n := e.w.nFutures; n > 1 {
			private, _ = e.w.futures[n-2].(*Future[int])
		}
	}
	// A Spawn whose signal finds the other worker idle with its token
	// already sent — by prep's Spawn; on one processor the woken worker has
	// not run yet. Its signal loads the idle count and the status words and
	// sends nothing: what every public spawn pays while a woken worker is
	// still on its way, no store or RMW beyond a Spawn's on one worker
	// (TestSyncOpsPerRun). The worker takes both tasks before its next park.
	var woken int64
	var wokenOn *Pool
	signalled := costRow{op: "a `Spawn` signalled to a worker woken already", workers: 2, at: atRoot, runs: 3, free: 1 << colLoads,
		prep: func(e *costEnv) {
			if wokenOn != e.p {
				wokenOn, woken = e.p, 0
			}
			spinUntil(e.t, "the other worker to park", func() bool {
				return e.other.status.Load() == workerIdle && e.other.parks.Load() > woken
			})
			woken = e.other.parks.Load()
			e.w.Spawn(nop)
		},
		do: func(e *costEnv) { e.w.Spawn(nop) }}
	// The member is stolen before the window and spins until the waiter
	// has blocked in the group.
	var started atomic.Bool
	blockedWait := wake("blocked `Group.Wait` on a stolen member", atRoot, 0, func(e *costEnv) { e.g.Wait(e.w) })
	blockedWait.prep = func(e *costEnv) {
		parked(e)
		started.Store(false)
		e.g.Spawn(e.w, func(*Worker) {
			started.Store(true)
			r := e.g.rec
			spinUntil(e.t, "the waiter to block in the group", func() bool { return r.sleeper.Load() != nil })
		})
		spinUntil(e.t, "the member to be stolen", started.Load)
	}
	// A Submit the parked worker ends before the Wait, and one whose root
	// spins until the Wait has installed a channel: two objects, the
	// channel and the cell the word points to (waitChan). A window is a
	// chunk's worth of them, each through to the worker's next park, so it
	// makes one chunk of Handles (nextHandle) whatever the cursor.
	var blocking atomic.Pointer[Handle]
	submit := func(op string, root func(*Worker), await func(h *Handle)) costRow {
		return wake(op, serving, 0, func(e *costEnv) {
			for i := range handleChunk {
				if i > 0 {
					reparked(e)
					e.parks++
				}
				h, err := e.p.Submit(root)
				if err != nil {
					e.t.Fatalf("Submit: %v", err)
				}
				await(h)
				if err := h.Wait(); err != nil {
					e.t.Fatalf("Wait: %v", err)
				}
			}
		})
	}
	poll := func(h *Handle) { // Err installs nothing
		for !h.done.isDone() {
			if err := h.Err(); err != nil {
				e.t.Fatalf("Err of a live submission = %v", err)
			}
			runtime.Gosched()
		}
	}
	awaitWaiter := func(*Worker) {
		for h := blocking.Load(); h == nil || h.done.p.Load() == nil; h = blocking.Load() {
			runtime.Gosched()
		}
		blocking.Store(nil)
	}
	const forced = "`Run` of `Join2`+`Reduce` split, stolen on 2"
	// The tests that measure a theme's rows, each against its rows of the
	// file; TestCostTable measures the rest.
	by := func(test string, row costRow) costRow { row.by = test; return row }
	const (
		spawnPath = "TestSpawnPathAllocations"
		stealPath = "TestStealPathAllocations"
		groupWait = "TestBlockedGroupWaitAllocations"
		runs      = "TestRunAllocations"
		submits   = "TestSubmitAllocations"
		reduceOf  = "TestRecycleReduceOfJoin2AllocatesNothing"
	)
	return []costRow{
		by(spawnPath, in("`Join2`", func(e *costEnv) { Join2(e.w, one, one) })),
		by(spawnPath, in("`Join2` of a capturing closure", func(e *costEnv) { Join2(e.w, func(*Worker) int { return e.w.id }, one) })),
		in("`Join2` of `int`, then of `string`", func(e *costEnv) { Join2(e.w, one, one); Join2(e.w, str, one) }),
		in("two `Join2` of `string`", func(e *costEnv) { Join2(e.w, str, one); Join2(e.w, str, one) }),
		in("`Reduce` split, 2 leaves", func(e *costEnv) { Reduce(e.w, 0, 2, 1, ident, add) }),
		by(spawnPath, in("`Reduce` over 64 leaves", func(e *costEnv) { Reduce(e.w, 0, 64, 1, ident, add) })),
		by(reduceOf, in("`Reduce` over 64 leaves that `Join2`", func(e *costEnv) {
			if Reduce(e.w, 0, 64, 1, joinLeaf, add) != 128 {
				e.t.Error("a Reduce over 64 leaves that Join2 computed wrong")
			}
		})),
		by(spawnPath, in("`ParallelFor` over 64 pieces", func(e *costEnv) { ParallelFor(e.w, 0, 64, 1, func(int) {}) })),
		// The task goes back to the list of the worker that runs it: the next
		// window's help.
		{op: "`Spawn`", workers: 1, at: inTask, runs: 100, by: spawnPath, do: func(e *costEnv) { e.w.Spawn(nop) },
			prep: func(e *costEnv) { e.w.help(e.w.currentRun()); e.w.flush() }},
		by(spawnPath, in("`Group.Spawn`+`Wait`", func(e *costEnv) { g := NewGroup(); g.Spawn(e.w, nop); g.Wait(e.w) })),
		by(spawnPath, in("`NewGroup`+4 `Spawn`+`Wait`", func(e *costEnv) {
			g := NewGroup()
			for range 4 {
				g.Spawn(e.w, nop)
			}
			g.Wait(e.w)
		})),
		by(spawnPath, in("a zero `Group`, 2 `Spawn`+`Wait`", func(e *costEnv) { var g Group; g.Spawn(e.w, nop); g.Spawn(e.w, nop); g.Wait(e.w) })),
		by(spawnPath, in("`Invoke` of three", func(e *costEnv) { Invoke(e.w, nop, nop, nop) })),
		// The caller holds what Fork returns: that Future is the collector's.
		by(spawnPath, in("`Fork`+`Join`", func(e *costEnv) { Fork(e.w, one).Join(e.w) })),
		by(spawnPath, in("`Fork`+`Join` of a capturing closure", func(e *costEnv) { Fork(e.w, func(*Worker) int { return e.w.id }).Join(e.w) })),
		wake("park+wake: a `Spawn` the parked worker steals", atRoot, 1, func(e *costEnv) { e.w.Spawn(nop) }),
		signalled,
		stolenJoin2,
		stolenPrivate,
		by(groupWait, blockedWait),
		by(submits, submit("64 `Submit`+`Wait`, ended", nop, poll)),
		by(submits, submit("64 `Submit`+`Wait`, blocking", awaitWaiter, blocking.Store)),
		{op: "64 `Submit`, refused", workers: 1, at: servingFull, cfg: Config{InjectorCapacity: 1}, runs: 100,
			do: func(e *costEnv) {
				for range handleChunk {
					if h, err := e.p.Submit(nop); h != nil || !errors.Is(err, ErrOverloaded) {
						e.t.Fatalf("Submit on a full injector = %v, %v; want nil, ErrOverloaded", h, err)
					}
				}
			}, by: submits},
		by(runs, run("an empty `Run`", 1, 0, nop)),
		by(runs, run("an empty `RunContext`", 1, 0, nil)),
		by(runs, run("`Run` of a 512-leaf `Reduce`", 1, 0, reduce)),
		by(runs, run("an empty `Run`", 2, 0, nop)),
		by(runs, run("an empty `RunContext`", 2, 0, nil)),
		by(runs, run("`Run` of a 512-leaf `Reduce`", 2, 0, reduce)),
		by(stealPath, run(forced, 1, 0, stealRoot)),
		by(stealPath, run(forced, 2, 2, stealRoot)),
		run("`Run` of `Join2` fib(25)", 1, 0, fib(25)),
		run("`Run` of `Join2` fib(22)", 1, 0, fib(22)),
	}
}

// readCosts reads a table TestCostTable wrote: each row's six counted
// columns, fences last, by operation and workers.
func readCosts(t *testing.T) (table []byte, rows map[string][]string) {
	table, err := os.ReadFile(costsGolden)
	if err != nil {
		t.Fatal(err)
	}
	rows = map[string][]string{}
	for _, line := range strings.Split(string(table), "\n") {
		if cells := strings.Split(line, "|"); len(cells) == len(costHeader)+2 {
			for j := range cells {
				cells[j] = strings.TrimSpace(cells[j])
			}
			rows[cells[1]+" on "+cells[2]] = cells[3:9]
		}
	}
	return table, rows
}

func (row costRow) key() string { return row.op + " on " + strconv.Itoa(row.workers) }

// costLine is row's line of the table from what this build counted, c:
// "-" in the columns the schedule decides, the file's line, have, in those
// this build does not measure, and fences, stores+RMWs, last.
func costLine(row costRow, c cost, have []string) []string {
	measured := 1<<colLoads - 1
	if countingBuild {
		measured |= syncCols
	}
	line := []string{row.op, strconv.Itoa(row.workers)}
	for j, old := range append(have, "?", "?", "?", "?", "?")[:5] {
		switch {
		case row.free&(1<<j) != 0:
			old = "-"
		case measured&(1<<j) != 0:
			old = strconv.FormatInt(c[j], 10)
		}
		line = append(line, old)
	}
	stores, errS := strconv.Atoi(line[2+colStores])
	rmws, errR := strconv.Atoi(line[2+colRMWs])
	if line = append(line, strconv.Itoa(stores+rmws)); errS != nil || errR != nil {
		line[7] = max(line[2+colStores], line[2+colRMWs]) // "?" over "-"
	}
	return line
}

// renderCosts writes lines under the header as a Markdown table whose
// columns line up in the file too.
func renderCosts(lines [][]string) []byte {
	lines = append([][]string{costHeader, {":--", "--:", "--:", "--:", "--:", "--:", "--:", "--:"}}, lines...)
	var table bytes.Buffer
	tw := tabwriter.NewWriter(&table, 0, 0, 1, ' ', 0)
	for _, l := range lines {
		fmt.Fprintf(tw, "| %s\t|\n", strings.Join(l, "\t| "))
	}
	tw.Flush()
	return table.Bytes()
}

// checkCosts measures the rows that test measures and compares each with
// its line of testdata/costs.golden exactly: the objects and bytes in every
// build, the loads, stores and RMWs in the counting one, and, under -race,
// whose instrumentation allocates, nothing.
func checkCosts(t *testing.T, test string) {
	_, have := readCosts(t)
	e := &costEnv{t: t}
	rows := slices.DeleteFunc(costRows(e), func(row costRow) bool { return row.by != test })
	if len(rows) == 0 {
		t.Fatalf("no row of the cost table is measured by %s", test)
	}
	if raceEnabled {
		return
	}
	for _, row := range rows {
		if line := costLine(row, row.measure(e), have[row.key()]); !slices.Equal(line[2:], have[row.key()]) {
			t.Errorf("%s: %s reads %q, this build counts %q (-update rewrites it, and git diff shows the change)", costsGolden, row.key(), have[row.key()], line[2:])
		}
	}
}

// TestCostTable measures the cost table's rows no other test measures
// (checkCosts), and checks that the file holds every row in costRows'
// order, laid out as -update writes it, and that its copies equal it.
// With -update it measures every row and rewrites the file from this
// build's counts, keeping the columns this build does not measure.
func TestCostTable(t *testing.T) {
	golden, have := readCosts(t)
	e, lines := &costEnv{t: t}, [][]string(nil)
	switch {
	case *update && !raceEnabled:
		for _, row := range costRows(e) {
			lines = append(lines, costLine(row, row.measure(e), have[row.key()]))
		}
		golden = renderCosts(lines)
		if err := os.WriteFile(costsGolden, golden, 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		checkCosts(t, "")
		for _, row := range costRows(e) {
			lines = append(lines, append([]string{row.op, strconv.Itoa(row.workers)}, have[row.key()]...))
		}
		if table := renderCosts(lines); !bytes.Equal(table, golden) {
			t.Errorf("%s does not hold the table's rows in order, laid out as -update writes them:\n%s", costsGolden, table)
		}
	}
	begin, end := []byte("<!-- costs.golden begin -->\n"), []byte("<!-- costs.golden end -->\n")
	for _, path := range []string{"../../DESIGN.md", "../../README.md"} {
		doc, _ := os.ReadFile(path) // a copy that cannot be read has no markers either
		before, rest, ok := bytes.Cut(doc, begin)
		inside, after, ok2 := bytes.Cut(rest, end)
		switch {
		case !ok || !ok2:
			t.Errorf("%s: no cost table between %q and %q", path, begin, end)
		case *update:
			if err := os.WriteFile(path, slices.Concat(before, begin, golden, end, after), 0o644); err != nil {
				t.Fatal(err)
			}
		case !bytes.Equal(inside, golden):
			t.Errorf("%s: its cost table is not %s; -update rewrites it", path, costsGolden)
		}
	}
}

// TestSpawnPathAllocations measures the cost table's rows of a task's
// forks, joins, spawns and groups, none of them stolen: Join2 and Reduce
// allocate nothing, nor do Spawn and a Group; a Fork allocates its Future.
func TestSpawnPathAllocations(t *testing.T) { checkCosts(t, t.Name()) }

// TestStealPathAllocations measures the Run whose Join2 and Reduce split
// are stolen and joined blocking on two workers: it allocates what the
// same Run does on one.
func TestStealPathAllocations(t *testing.T) { checkCosts(t, t.Name()) }

// TestBlockedGroupWaitAllocations measures a Group.Wait that sleeps on a
// member another worker stole: it allocates nothing.
func TestBlockedGroupWaitAllocations(t *testing.T) { checkCosts(t, t.Name()) }

// TestRunAllocations measures an empty Run, an empty RunContext and a Run
// of a 512-leaf Reduce, on one worker and on two: none allocates.
func TestRunAllocations(t *testing.T) { checkCosts(t, t.Name()) }

// TestSubmitAllocations measures a Submit whose Wait finds it ended, one
// whose Wait blocks, and one the full injector refuses.
func TestSubmitAllocations(t *testing.T) { checkCosts(t, t.Name()) }

// TestRecycleReduceOfJoin2AllocatesNothing measures a Reduce over 64
// leaves that each Join2, whose records the free lists recycle.
func TestRecycleReduceOfJoin2AllocatesNothing(t *testing.T) { checkCosts(t, t.Name()) }
