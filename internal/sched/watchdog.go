// Stall watchdog: surfacing frozen workers instead of hanging silently.
//
// The paper's non-blocking claim means a stalled process cannot block the
// *others* — it says nothing about noticing that a process has stalled.
// In production that observability gap is what turns a wedged worker (a
// task stuck in a syscall, a goroutine suspended by a fault injection, a
// deadlocked user callback) into an unexplained hang of the whole job. The
// watchdog closes the gap: when Config.StallTimeout is set, a monitor
// goroutine runs alongside each session — a batch Run or a whole Serve —
// and reports any worker goroutine that makes no scheduler-visible
// progress for a full window while running. In serve mode one watchdog
// covers every submission at once: a stall is a property of a worker, not
// of any particular submission, and the report carries the worker index.
//
// Progress is the per-worker progress counter, ticked on every loop
// iteration and every task completion. Idle workers are exempt (waiting
// for work is the healthy idle state, and the Dekker handshake in
// lifecycle.go guarantees they cannot be waiting on lost work). What
// remains — running and motionless — is either a worker frozen
// mid-operation (the chaos scenario) or a single task running (or blocked
// in a Join) longer than the window; both are exactly what an operator
// wants surfaced. Detection is intentionally report-only: the watchdog
// never kills or unwinds anything, it increments Stats.StallsDetected and
// invokes Config.OnStall once per stall episode (re-arming when the worker
// makes progress again).
package sched

import "time"

// StallReport describes one detected stall episode.
type StallReport struct {
	// Worker is the index of the stalled worker goroutine.
	Worker int
	// Stalled is how long the worker had made no progress at detection
	// time; at least Config.StallTimeout.
	Stalled time.Duration
}

// watchdog polls worker progress until the session's quit closes,
// reporting stalls per the file comment. It is one of the session's
// goroutines — startSession starts it when Config.StallTimeout > 0 and
// endSession joins it, like the workers.
func (p *Pool) watchdog(quit <-chan struct{}) {
	defer p.wg.Done()
	window := p.cfg.StallTimeout
	interval := window / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	n := len(p.workers)
	last := make([]int64, n)
	since := make([]time.Time, n)
	reported := make([]bool, n)
	now := time.Now()
	for i, w := range p.workers {
		last[i] = w.progress.Load()
		since[i] = now
	}
	for {
		select {
		case <-quit:
			return
		case now = <-ticker.C:
		}
		for i, w := range p.workers {
			cur := w.progress.Load()
			// Only a running worker can stall: an idle one is waiting for
			// work, a retired one is asleep until a grow wakes it, and a
			// retiring worker may legitimately sit motionless at the
			// retire safe point (e.g. suspended by the kernel adversary at
			// sched.resize.beforeRetire) without that being a stall of the
			// serving fleet.
			if cur != last[i] || w.status.Load() != workerRunning {
				last[i] = cur
				since[i] = now
				reported[i] = false
				continue
			}
			if stalled := now.Sub(since[i]); !reported[i] && stalled >= window {
				reported[i] = true
				p.stalls.Add(1)
				if cb := p.cfg.OnStall; cb != nil {
					cb(StallReport{Worker: i, Stalled: stalled})
				}
			}
		}
	}
}
