// Tests for SubmitWithRetry (retry.go) against a genuinely saturated
// injector: a two-slot ring whose only worker is plugged, so
// ErrOverloaded is real backpressure, not a simulation.
package sched

import (
	"context"
	"errors"
	"testing"
	"time"
)

// saturate plugs the one-worker pool and fills its injector;
// the returned release unplugs the worker so the backlog drains.
func saturate(t *testing.T, p *Pool) (handles []*Handle, release func()) {
	t.Helper()
	release = plugWorkers(t, p)
	for i := 0; i < 2; i++ {
		h, err := p.Submit(func(*Worker) {})
		if err != nil {
			t.Fatalf("fill Submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if _, err := p.Submit(func(*Worker) {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe Submit = %v, want ErrOverloaded (the injector is not saturated)", err)
	}
	return handles, release
}

// The retry loop outlasts a transient overload: the injector is full when
// the call starts and drains while it is backing off.
func TestSubmitWithRetryOutlastsOverload(t *testing.T) {
	p := New(Config{Workers: 1, InjectorCapacity: 2})
	stop := startServing(t, p)
	fills, release := saturate(t, p)
	shed := p.Stats().SubmitsRejected

	res := make(chan error, 1)
	ran := make(chan struct{})
	go func() {
		h, err := p.SubmitWithRetry(context.Background(), func(*Worker) { close(ran) },
			RetryPolicy{MaxAttempts: 200, BaseDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond})
		if err == nil {
			err = h.Wait()
		}
		res <- err
	}()
	// The retrier is mid-backoff before the drain: an attempt has been shed.
	waitFor(t, 10*time.Second, "an attempt to be shed", func() bool { return p.Stats().SubmitsRejected > shed })
	release()
	if err := <-res; err != nil {
		t.Fatalf("SubmitWithRetry = %v across a transient overload", err)
	}
	<-ran
	for i, h := range fills {
		if err := h.Wait(); err != nil {
			t.Fatalf("fill submission %d: %v", i, err)
		}
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// A persistent overload exhausts the attempt budget and surfaces
// ErrOverloaded — the caller's signal that backpressure is not transient.
func TestSubmitWithRetryExhaustsAttempts(t *testing.T) {
	p := New(Config{Workers: 1, InjectorCapacity: 2})
	stop := startServing(t, p)
	fills, release := saturate(t, p)

	start := time.Now()
	h, err := p.SubmitWithRetry(context.Background(), func(*Worker) {},
		RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})
	if !errors.Is(err, ErrOverloaded) || h != nil {
		t.Fatalf("SubmitWithRetry under persistent overload: handle=%v err=%v, want nil handle and ErrOverloaded", h, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("3 bounded attempts took %v", elapsed)
	}
	release()
	for _, h := range fills {
		if err := h.Wait(); err != nil {
			t.Fatalf("fill Wait: %v", err)
		}
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// Cancellation cuts a backoff short: the call returns the ctx error
// promptly instead of sleeping out its schedule, and the submission never
// runs.
func TestSubmitWithRetryCancelledMidBackoff(t *testing.T) {
	p := New(Config{Workers: 1, InjectorCapacity: 2})
	stop := startServing(t, p)
	fills, release := saturate(t, p)
	shed := p.Stats().SubmitsRejected

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		// A backoff schedule far longer than the test: only cancellation
		// can end this call early.
		_, err := p.SubmitWithRetry(ctx, func(*Worker) { t.Error("cancelled submission ran") },
			RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second})
		res <- err
	}()
	waitFor(t, 10*time.Second, "the first attempt to be shed and the backoff to start", func() bool { return p.Stats().SubmitsRejected > shed })
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("SubmitWithRetry = %v after cancellation mid-backoff, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitWithRetry slept through its cancellation")
	}
	release()
	for _, h := range fills {
		if err := h.Wait(); err != nil {
			t.Fatalf("fill Wait: %v", err)
		}
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// Non-overload errors are terminal on the first attempt — retrying
// ErrNotServing or ErrDraining would just burn the schedule.
func TestSubmitWithRetryNoRetryOnTerminalErrors(t *testing.T) {
	p := New(Config{Workers: 1})
	start := time.Now()
	if _, err := p.SubmitWithRetry(context.Background(), func(*Worker) {},
		RetryPolicy{MaxAttempts: 100, BaseDelay: time.Second, MaxDelay: time.Second}); !errors.Is(err, ErrNotServing) {
		t.Fatalf("SubmitWithRetry on an idle pool = %v, want ErrNotServing", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("terminal error took %v: it was retried", elapsed)
	}
}
