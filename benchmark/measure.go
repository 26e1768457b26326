package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"worksteal/internal/sched"
)

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// spin is the body of every synthetic task: n rounds of xorshift64 from a
// non-zero state. The state never becomes zero, so callers compare the
// result with zero to keep the loop alive without a shared sink.
func spin(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// snapshot is everything the end-to-end metrics are deltas of, read at a
// sub-window boundary by the generator goroutine.
type snapshot struct {
	wall    int64
	stats   sched.Stats
	procCPU time.Duration // whole process, user+system
	genCPU  time.Duration // the open loop's generator thread alone; zero elsewhere
	mallocs uint64
	bytes   uint64
}

// rusageThread is Linux's RUSAGE_THREAD: the CPU time of the calling
// thread, meaningful only to a goroutine locked to it.
const rusageThread = 1

func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("getrusage: " + err.Error()) // Linux accepts both selectors; only a bug gets here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(p *sched.Pool) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		wall:    now(),
		stats:   p.Stats(),
		procCPU: cpuTime(syscall.RUSAGE_SELF),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// metric is one reported number. An end-to-end metric is the median of N
// sub-window values with quartiles Q1 and Q3, from which -compare
// estimates the spread between runs.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// percentile is the nearest-rank q-quantile of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts xs in place and returns its middle value.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// summarize reduces per-sub-window values to their median and quartiles.
func summarize(vals []float64, unit string) metric {
	xs := append([]float64(nil), vals...)
	m := metric{Value: median(xs), Unit: unit, N: len(xs)}
	m.Q1, m.Q3 = percentile(xs, 0.25), percentile(xs, 0.75)
	return m
}

// window is what a workload's measured window hands to endToEnd: the
// snapshots at the k+1 sub-window boundaries and the op times (ms) that
// fall in each sub-window.
type window struct {
	snaps     []snapshot
	ops       [][]float64
	attempted int
	failed    int
	genLate   []float64 // ms, open loop only
	notes     []string  // every mismatch found, for the report
}

// maxNotes bounds the mismatches a report lists; failed counts them all.
const maxNotes = 20

// subWindowEnd is the offset from a window's start at which sub-window
// sub of k ends.
func subWindowEnd(dur time.Duration, k, sub int) int64 { return int64(sub+1) * int64(dur) / int64(k) }

func (w *window) fail(n int, note string) {
	w.failed += n
	if len(w.notes) < maxNotes {
		w.notes = append(w.notes, note)
	}
}

// endToEnd computes each end-to-end metric per sub-window and reports the
// median, so one descheduled slice or one collector cycle moves a single
// sub-window and not the result.
func endToEnd(w *window, setup metric) map[string]metric {
	k := len(w.ops)
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for i := 0; i < k; i++ {
		a, b := w.snaps[i], w.snaps[i+1]
		tasks := float64(b.stats.TasksRun - a.stats.TasksRun)
		if tasks == 0 || len(w.ops[i]) == 0 {
			continue
		}
		sort.Float64s(w.ops[i])
		add("tasks_per_s", tasks/(float64(b.wall-a.wall)/1e9))
		add("op_ms_p50", percentile(w.ops[i], 0.50))
		add("op_ms_p99", percentile(w.ops[i], 0.99))
		cpu := (b.procCPU - a.procCPU) - (b.genCPU - a.genCPU)
		add("cpu_us_per_task", float64(cpu.Nanoseconds())/1e3/tasks)
		add("allocs_per_task", float64(b.mallocs-a.mallocs)/tasks)
		add("bytes_per_task", float64(b.bytes-a.bytes)/tasks)
	}
	out := map[string]metric{"setup_s": setup}
	for _, d := range endToEndMetrics[1:] {
		out[d.Name] = summarize(vals[d.Name], d.Unit)
	}
	for _, d := range opTimeMetrics {
		out[d.Name] = summarize(vals[d.Name], d.Unit)
	}
	return out
}

// metricDecl names one metric; the lists below are the program's side of
// BENCHMARK.json and the smoke test holds the two together.
type metricDecl struct{ Name, Unit string }

var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"cpu_us_per_task", "us"},
	{"allocs_per_task", "1"},
	{"bytes_per_task", "B"},
}

// opTimeMetrics are measured and printed by every run but declared among
// the per-layer metrics, which carry no bound. On serve_open an op waits
// for the host to wake a halted processor, and over ten seeds of one commit
// the median moved by 12 to 28 % and the tail by 34 to 56 %: at or above
// the largest bound a metric may have. On the other workloads ops follow
// one another, so their times are tasks_per_s read the other way.
var opTimeMetrics = []metricDecl{{"op_ms_p50", "ms"}, {"op_ms_p99", "ms"}}
