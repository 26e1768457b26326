package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// spanKind names a span. Spans are recorded only by the benchmark's own
// code: around its calls into sched and inside its task closures.
type spanKind uint8

const (
	spanNone    spanKind = iota
	spanRun              // generator: one Pool.Run call
	spanTask             // a forked task's closure, entry to return
	spanLeaf             // a spin body
	spanFork             // a call into sched.Fork
	spanJoin             // a call into Future.Join
	spanSubmit           // generator: one Pool.Submit call
	spanExec             // a submission's root body
	spanSpawn            // a call into Group.Spawn
	spanWait             // a call into Group.Wait
	spanChild            // a submission's child body
	spanSojourn          // due time to root end; parent of the stages below
	spanQueue            // Submit return to root start
	spanResolve          // root end to Handle.Wait return
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"", "run", "task", "leaf", "sched.Fork", "sched.Join",
	"sched.Submit", "exec", "sched.Group.Spawn", "sched.Group.Wait", "child", "sojourn", "queue_wait", "resolve"}

type span struct {
	kind, parent spanKind
	lane         int32
	op           int32
	start, end   int64
}

// laneCap bounds the spans kept per lane, which bounds the trace file at
// a few megabytes; the self-time ledger keeps counting past it.
const laneCap = 1 << 14

// lane holds what one goroutine records: worker i writes lane i and the
// generator writes the last one, so no lane has two writers.
type lane struct {
	spans   []span
	cur     spanKind // the enclosing span
	childNs int64    // time covered by finished spans at this nesting level
	self    [numSpanKinds]int64
	count   [numSpanKinds]int64
	handoff []float64 // us from spawn to start, for tasks that changed worker
	_       [64]byte
}

type tracer struct {
	lanes []lane
	op    int32 // the op in flight on the fork-join workloads, which run one at a time
}

func newTracer(workers int) *tracer {
	t := &tracer{lanes: make([]lane, workers+1)}
	for i := range t.lanes {
		t.lanes[i].spans = make([]span, 0, laneCap)
		t.lanes[i].handoff = make([]float64, 0, laneCap)
	}
	return t
}

// reset forgets what set-up and warm-up recorded.
func (t *tracer) reset() {
	for i := range t.lanes {
		l := &t.lanes[i]
		*l = lane{spans: l.spans[:0], handoff: l.handoff[:0]}
	}
}

func (t *tracer) gen() *lane { return &t.lanes[len(t.lanes)-1] }

// frame is what begin hands to end. Every span a goroutine opens closes
// on the same goroutine, so the nesting is a stack and a span's self time
// is its duration minus the spans that closed inside it.
type frame struct {
	start, childNs int64
	parent         spanKind
}

func (l *lane) begin(k spanKind) frame {
	f := frame{childNs: l.childNs, parent: l.cur}
	l.cur, l.childNs = k, 0
	f.start = now()
	return f
}

func (l *lane) end(k spanKind, op int32, f frame) int64 {
	t := now()
	dur := t - f.start
	l.self[k] += dur - l.childNs
	l.count[k]++
	l.childNs = f.childNs + dur
	l.cur = f.parent
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{kind: k, parent: f.parent, op: op, start: f.start, end: t})
	}
	return t
}

// started records the hand-off of a task that starts on another worker
// than the one that spawned it.
func (l *lane) started(spawnedAt, startedAt int64) {
	if len(l.handoff) < cap(l.handoff) {
		l.handoff = append(l.handoff, float64(startedAt-spawnedAt)/1e3)
	}
}

// selfNs sums a kind's self time over the lanes.
func (t *tracer) selfNs(k spanKind) (ns, count int64) {
	for i := range t.lanes {
		ns += t.lanes[i].self[k]
		count += t.lanes[i].count[k]
	}
	return
}

func (t *tracer) handoffs() []float64 {
	var all []float64
	for i := range t.lanes {
		all = append(all, t.lanes[i].handoff...)
	}
	sort.Float64s(all)
	return all
}

// printLedger lists each span kind's count and self time.
func (t *tracer) printLedger(w *bufio.Writer, wallNs int64) {
	fmt.Fprintf(w, "  %-18s %12s %14s %10s\n", "span", "count", "self_ms", "self/wall")
	for k := spanKind(1); k < numSpanKinds; k++ {
		if ns, n := t.selfNs(k); n > 0 {
			fmt.Fprintf(w, "  %-18s %12d %14.3f %10.4f\n", spanNames[k], n, float64(ns)/1e6, float64(ns)/float64(wallNs))
		}
	}
}

// writeChrome writes the kept spans, and the stage spans of the traced
// submissions, as Chrome trace-event JSON: one complete ("X") event per
// span, tid the lane (workers, then the generator, then the stage lanes).
func (t *tracer) writeChrome(path string, stages []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	first := true
	emit := func(s span, tid int) {
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%q}}`,
			spanNames[s.kind], tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, spanNames[s.parent])
	}
	for i := range t.lanes {
		for _, s := range t.lanes[i].spans {
			emit(s, i)
		}
	}
	for _, s := range stages {
		emit(s, len(t.lanes)+int(s.lane))
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
