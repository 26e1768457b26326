// Command benchmark is the repository's benchmark: five workloads on the
// public Pool path at GOMAXPROCS > 1, five bounded end-to-end metrics,
// and a per-layer ledger from a separate traced run. BENCHMARK.json at
// the repository root declares it; README.md explains every name.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one entry of the benchmark's table; BENCHMARK.json and
// README.md say why each is there. Exactly one of fj and serve is set.
type workload struct {
	name    string
	perProc int // Config.Workers is perProc x GOMAXPROCS
	fj      func(seed uint64) fjProblem
	serve   *serveSpec
}

func (wl *workload) workers() int { return wl.perProc * runtime.GOMAXPROCS(0) }

// childSpins is the body of every serve child and multiprog leaf: about
// 3.8 us on the sandbox.
const childSpins = 2000

var workloads = []workload{
	{
		name:    "fj_fine",
		perProc: 1,
		fj:      func(uint64) fjProblem { return fineProblem(22) },
	},
	{
		name:    "fj_coarse",
		perProc: 1,
		fj:      func(seed uint64) fjProblem { return coarseProblem(seed, 512, 20000) },
	},
	{
		name:    "multiprog",
		perProc: 4,
		fj:      func(seed uint64) fjProblem { return cutoffProblem(seed, 24, 8, childSpins) },
	},
	{
		name:    "serve_closed",
		perProc: 1,
		serve:   &serveSpec{outstanding: 64, fanout: 4, spins: childSpins},
	},
	{
		name:    "serve_open",
		perProc: 1,
		// 12 000/s is about 30 % of the one processor the pool has: the pacing
		// generator spins on the other. The injector holds two thirds of a
		// second of arrivals in place of the default 85 ms, so that a
		// neighbour borrowing the sandbox's CPU for a moment makes a slow
		// window and not a refused submission.
		serve: &serveSpec{open: true, rate: 12000, fanout: 4, spins: childSpins, capacity: 1 << 13},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// subWindows is how many sub-windows a measured window is cut into. Each
// end-to-end metric is the median of its sub-window values, so that a
// neighbour's burst on the sandbox spoils one value and not the result.
// Ten keeps a fork-join sub-window's p99 (about 150 ops) apart from its
// maximum and puts several collector cycles into a serve sub-window; of
// the counts tried on recorded op times it gave the steadiest p99.
const subWindows = 10

// setupRepeats is how many times a workload is set up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

// instance is a workload set up, warm and ready for its window.
type instance struct {
	fj    *fjInstance
	serve *serveHarness
}

func (wl *workload) setup(seed uint64, dur time.Duration, tr *tracer) (*instance, error) {
	workers := wl.workers()
	if wl.fj != nil {
		in, err := setupFJ(workers, seed, wl.fj)
		return &instance{fj: in}, err
	}
	h, err := setupServe(*wl.serve, workers, seed, dur, subWindows, tr, serveWarmOps)
	return &instance{serve: h}, err
}

func (in *instance) close() error {
	if in.serve != nil {
		return in.serve.close()
	}
	return nil
}

func (in *instance) measure(dur time.Duration, tr *tracer) *window {
	switch {
	case in.fj != nil:
		return in.fj.measure(dur, subWindows, tr)
	case in.serve.spec.open:
		return in.serve.openLoop(dur, subWindows)
	default:
		return in.serve.closedLoop(dur, subWindows, 0, in.serve.spec.outstanding)
	}
}

// timedSetup sets the workload up repeats times and returns the last
// instance with the set-up times in seconds.
func (wl *workload) timedSetup(seed uint64, dur time.Duration, tr *tracer, repeats int) (*instance, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := now()
		in, err := wl.setup(seed, dur, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(now()-t0)/1e9)
		if i == repeats-1 {
			return in, times, nil
		}
		if err := in.close(); err != nil {
			return nil, nil, err
		}
	}
}

// report is what one run of one workload found: the result the driver
// reads and what the README calls "printed, not gated". results.json is a
// list of these.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Traced       bool     `json:"traced"`
	GoMaxProcs   int      `json:"gomaxprocs"`
	Workers      int      `json:"workers"`
	GenLateMsP99 float64  `json:"gen_late_ms_p99"`
	Notes        []string `json:"notes,omitempty"`
}

func runUntraced(wl *workload, seed uint64, dur time.Duration) (*report, error) {
	in, setups, err := wl.timedSetup(seed, dur, nil, setupRepeats)
	if err != nil {
		return nil, err
	}
	win := in.measure(dur, nil)
	if err := in.close(); err != nil {
		win.fail(1, err.Error())
	}
	rep := newReport(wl, seed, dur, win)
	rep.Metrics = endToEnd(win, summarize(setups, "s"))
	return rep, nil
}

func newReport(wl *workload, seed uint64, dur time.Duration, win *window) *report {
	sort.Float64s(win.genLate)
	return &report{
		Correct:      win.failed == 0,
		Attempted:    win.attempted,
		Failed:       win.failed,
		Workload:     wl.name,
		Seed:         seed,
		Seconds:      dur.Seconds(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Workers:      wl.workers(),
		GenLateMsP99: percentile(win.genLate, 0.99),
		Notes:        win.notes,
	}
}

func (r *report) print(w *bufio.Writer, decls []metricDecl) {
	if !r.Traced {
		decls = append(decls[:len(decls):len(decls)], opTimeMetrics...)
	}
	fmt.Fprintf(w, "%s  seed=%d seconds=%g traced=%v gomaxprocs=%d workers=%d ops=%d failed=%d gen_late_ms_p99=%.4f\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.GoMaxProcs, r.Workers, r.Attempted, r.Failed, r.GenLateMsP99)
	for _, d := range decls {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-32s %16.6g %-6s", d.Name, m.Value, m.Unit)
		if m.Q1 != 0 || m.Q3 != 0 {
			fmt.Fprintf(w, "  [q1 %.6g, q3 %.6g]", m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  MISMATCH: %s\n", n)
	}
}

// lastLine is the run's result as the driver reads it: the last line of
// standard output, each declared metric with its value and unit and
// nothing else.
func (r *report) lastLine(decls []metricDecl) ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, d := range decls {
		m := r.Metrics[d.Name]
		line.Metrics[d.Name] = valueUnit{m.Value, m.Unit}
	}
	return json.Marshal(line)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a result was wrong; see MISMATCH above")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured window of each workload")
	trace := fs.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	outDir := fs.String("out", "out", "directory for results.json and the trace files")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return errors.New("GOMAXPROCS is 1: no steal can occur, so nothing this benchmark measures exists")
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	todo := workloads
	if *name != "all" {
		wl := findWorkload(*name)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo = []workload{*wl}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	dur := time.Duration(*seconds * float64(time.Second))
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	var reports []*report
	incorrect := false
	for i := range todo {
		wl := &todo[i]
		var rep *report
		var err error
		decls := endToEndMetrics
		if *trace == 1 {
			decls = perLayerMetrics
			rep, err = runTraced(wl, *seed, dur, *outDir, out)
		} else {
			rep, err = runUntraced(wl, *seed, dur)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		rep.print(out, decls)
		line, err := rep.lastLine(decls)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
		out.Flush()
		reports = append(reports, rep)
		incorrect = incorrect || !rep.Correct
	}
	if err := writeJSON(filepath.Join(*outDir, "results.json"), reports); err != nil {
		return err
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
