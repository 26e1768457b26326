// Graceful drain: stop accepting, finish everything accepted, then stop
// the fleet (DESIGN.md §7, "Drain").
//
// Serve's context cancellation is an abort: every in-flight submission
// completes with ErrStopped and its unexecuted tasks are discarded. A
// production service wants the other shutdown too — the load balancer
// stops sending, accepted requests finish, then the fleet comes down.
// Pool.Drain(ctx) is that path, three steps:
//
//  1. Close admission: the CAS serving → draining on the phase word (one
//     Drain wins per session; one that loses to a stop fails it) and
//     Submit starts returning ErrDraining.
//  2. Wait for the accepted set: the runs the registry held at the CAS,
//     each on the completion word its Handle waits on. ctx bounds the wait
//     — on expiry Drain proceeds immediately and the leftover submissions
//     meet endSession's abort instead, completing with ErrStopped exactly
//     as a cancelled Serve would leave them. A stop under the drain ends
//     the wait too, through the same words: it aborts what is in flight,
//     and a run that ended ErrStopped is a drain that failed.
//  3. Stop the fleet: stopWith, with no cause, sends the token Serve's
//     select waits on, as an engine failure would; Serve runs the one
//     teardown (its abort is a no-op on the happy path — the set is already
//     empty) and returns nil, distinguishing a completed drain from a
//     cancellation. The stop names the session the CAS drained (Pool.gen):
//     one that has ended since, and any session after it, ignore it
//     (phase_model_test.go lets it stop the next one and finds that). The
//     pool is reusable: the next Serve starts a session of its own.
//
// The no-lost-submission argument is a Dekker pairing over one SC word,
// the phase, and the runMu-guarded registry. Submit orders
// load(phase) = serving → register → push → re-load(phase); Drain orders
// CAS(phase: serving → draining) → read(registry). If Submit's re-load
// still reads serving, the CAS hadn't happened, so Drain's registry read is
// after this run's register and Drain waits for it. If the re-load reads
// draining, Submit can't know whether Drain's look caught the run, so it
// self-aborts and reports ErrDraining — the submission counts as rejected,
// never as an accepted handle that later fails; unless a worker completed
// the run first, and then the submission ran and counts as accepted. A
// stop is the same pairing with endSession's store of stopping in the
// CAS's place and its abort of the registry in the wait's. Either way, every Submit that returned a
// handle and nil error before Drain began is completed, not aborted.
// phase_model_test.go checks the argument over every interleaving of a
// Submit, two Drains, a stop and a restart.
package sched

import (
	"context"
	"errors"
)

// ErrDraining reports a Submit on a pool whose Drain is in flight (or a
// second concurrent Drain): admission is closed, and the submission will
// never run — or, when the Drain closed admission as Submit was pushing its
// root, its root may have started, and the submission was aborted.
var ErrDraining = errors.New("sched: pool is draining: submission rejected")

// Drain gracefully stops the serving session: admission closes first
// (Submit returns ErrDraining), every submission accepted before the drain
// runs to completion, and then the fleet stops — Serve returns nil. The
// wait for completion is bounded by ctx: on expiry Drain stops the fleet
// anyway and the submissions still in flight abort with ErrStopped (their
// Handles complete either way), exactly the sweep a cancelled Serve runs.
// Drain returns nil if everything accepted completed, ctx.Err() on a
// deadline fallback, ErrNotServing when no Serve is up (or Serve's own
// context stopped the session under the drain, aborting what was still in
// flight), and ErrDraining if it lost the race to a concurrent Drain. It
// returns once it has asked Serve to stop the fleet; join the Serve
// goroutine itself to observe full teardown, after which the pool is
// reusable (Serve restarts cleanly).
func (p *Pool) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// The CAS and the look at the registry share one critical section with
	// the read of the session's number: a session takes its number under
	// runMu before it reaches serving, so the number read here is that of
	// the session the CAS drained, whatever stops and restarts around this
	// call. The CAS comes before the look, so a submission the look misses
	// reads draining on its post-push re-check and rejects itself (the file
	// comment's pairing).
	p.runMu.Lock()
	gen := p.gen
	won := p.phase.CompareAndSwap(phaseServing, phaseDraining)
	var accepted []*run
	if won {
		accepted = p.inFlight()
	}
	p.runMu.Unlock()
	if !won {
		if p.phase.Load() == phaseDraining {
			return ErrDraining
		}
		return ErrNotServing
	}
	defer func() {
		for _, r := range accepted {
			r.let()
		}
	}()

	var err error
wait:
	for _, r := range accepted {
		h := r.h
		select {
		case <-h.done.waitChan():
			// Completed, panicked or cancelled, a run is finished as far as a
			// drain goes. One a stop aborted is not: Serve's context was
			// cancelled under the drain, which may not report success.
			if h.Err() == ErrStopped {
				return ErrNotServing
			}
		case <-ctx.Done():
			// Deadline: fall back to the abort — Serve's teardown below
			// completes the stragglers with ErrStopped.
			err = ctx.Err()
			break wait
		}
	}
	p.stopWith(gen, nil)
	return err
}
