package sched

import (
	"fmt"
	"strings"
)

// Stats aggregates per-worker scheduler counters. All counters accumulate
// across runs. The per-worker counters behind it are atomics, so
// Pool.Stats is safe to call at any time, including concurrently with a
// running Run (the snapshot is per-counter consistent, not a single
// instant across counters). A worker adds a task's spawns and popped-back
// calls to TasksRun and Spawns when the task ends, before the release that
// can end its submission, so both are exact once a Run has returned or a
// Handle has resolved nil; a read mid-run, or after an abort, lags by the
// tasks still executing.
type Stats struct {
	TasksRun       int64
	Spawns         int64
	InlineRuns     int64 // spawns executed inline because a deque was full
	TasksDropped   int64 // stale tasks discarded after a panic-aborted submission
	TasksCancelled int64 // tasks discarded unrun by a cancelled or stopped submission
	StallsDetected int64 // stall episodes surfaced by the watchdog (watchdog.go)
	Steals         int64
	StealAttempts  int64
	Yields         int64
	Parks          int64 // times an idle worker blocked on its token channel
	Wakes          int64 // parked workers woken by a work signal
	// BackoffNanos is always 0. It was the time idle workers spent in
	// timed naps on their way to a park; a worker now parks straight after
	// its hot rounds, with no nap to time.
	//
	// Deprecated: kept so that readers which compute a share from it still
	// build; Parks and Wakes describe the idle path.
	BackoffNanos int64

	// Service-mode counters (serve.go).
	Submitted int64 // submissions whose Submit returned a Handle
	// SubmitsRejected counts the submissions that reached the injector and
	// were turned away there: ErrOverloaded from a full injector, and the
	// ErrDraining of a Drain that closed admission while the push landed.
	// A Submit refused at the gate, before the push — ErrDraining,
	// ErrNotServing, or a context already done — is not counted.
	SubmitsRejected int64
	InjectorBacklog int64 // momentary injector occupancy at the Stats call

	// Elastic-fleet counters (resize.go).
	Resizes        int64 // Resize calls that changed the fleet target
	WorkersRetired int64 // workers that completed retirement (shrink safe points reached)
	ActiveWorkers  int64 // workers running or idle — the fleet — at the Stats call
}

// String renders the counters as an aligned two-column table, one counter
// per line (the table cmd/abpbench -stats prints).
func (s Stats) String() string {
	var b strings.Builder
	row := func(name string, v any) { fmt.Fprintf(&b, "%-17s %14v\n", name, v) }
	row("tasks-run", s.TasksRun)
	row("spawns", s.Spawns)
	row("inline-runs", s.InlineRuns)
	row("tasks-dropped", s.TasksDropped)
	row("tasks-cancelled", s.TasksCancelled)
	row("stalls", s.StallsDetected)
	row("steals", s.Steals)
	row("steal-attempts", s.StealAttempts)
	row("yields", s.Yields)
	row("parks", s.Parks)
	row("wakes", s.Wakes)
	row("submitted", s.Submitted)
	row("submits-rejected", s.SubmitsRejected)
	row("injector-backlog", s.InjectorBacklog)
	row("resizes", s.Resizes)
	row("workers-retired", s.WorkersRetired)
	row("active-workers", s.ActiveWorkers)
	return b.String()
}
