// SubmitWithRetry: bounded, jittered retries over the admission gate.
//
// ErrOverloaded is the service's backpressure signal — transient by
// design: the injector is momentarily full and the fleet is draining it.
// Callers that would rather wait a little than shed write the same retry
// loop every time; this file provides the canonical one. Only
// ErrOverloaded is retried. Every other outcome is final: ErrNotServing
// and ErrDraining mean admission is closed, a context error means the
// caller gave up, and task panics are not Submit errors at all (they
// surface from Handle.Wait, and retrying a submission that ran would
// execute it twice).
package sched

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy bounds SubmitWithRetry. The zero value is a sane default:
// 4 attempts, 100µs base backoff, 10ms cap.
type RetryPolicy struct {
	// MaxAttempts is the total number of Submit attempts (the first try
	// plus retries). 0 means 4.
	MaxAttempts int
	// BaseDelay is the nominal backoff before the first retry; it doubles
	// per attempt up to MaxDelay. 0 means 100µs.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. 0 means 10ms.
	MaxDelay time.Duration
	// Seed seeds the jitter draw; 0 means a time-free fixed default (two
	// equal policies retry on identical schedules).
	Seed int64
}

// SubmitWithRetry submits fn, retrying with jittered exponential backoff
// while Submit reports ErrOverloaded, up to the policy's attempt bound or
// until ctx ends. Each backoff sleeps a uniformly jittered duration in
// [d/2, d] (full-jitter halves herd synchronization between concurrent
// submitters), selecting against ctx so cancellation cuts the wait short.
// The return values are exactly SubmitContext's: the final attempt's
// handle and error — ErrOverloaded only after every attempt was shed.
func (p *Pool) SubmitWithRetry(ctx context.Context, fn func(*Worker), pol RetryPolicy) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	base := pol.BaseDelay
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	maxD := pol.MaxDelay
	if maxD <= 0 {
		maxD = 10 * time.Millisecond
	}
	if maxD < base {
		maxD = base
	}
	seed := pol.Seed
	if seed == 0 {
		seed = 0x5EED2E72
	}
	// The jitter source is made at the first retry: its state is 607 words,
	// and the common call is admitted at once.
	var rng *rand.Rand
	for attempt := 1; ; attempt++ {
		h, err := p.SubmitContext(ctx, fn)
		if !errors.Is(err, ErrOverloaded) || attempt >= attempts {
			return h, err
		}
		d := base << (attempt - 1)
		if d > maxD || d <= 0 { // <= 0: shift overflow at absurd attempt counts
			d = maxD
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		}
		d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}
