// Tests for the service API (serve.go): Serve/Submit lifecycle, handle
// outcomes, per-submission cancellation and panic isolation, and the
// overload path — the bounded injector's admission contract. The contract
// under test throughout: a Submit either returns an error immediately or
// returns a Handle whose Wait always eventually returns; there is no
// silent drop and no wedged Wait.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startServing runs p.Serve on its own goroutine and returns a stop
// function that cancels it and waits for it to return, reporting Serve's
// error. Tests submit only between startServing and stop.
func startServing(t *testing.T, p *Pool) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.Serve(ctx)
	}()
	waitFor(t, 10*time.Second, "pool to start serving", inPhase(p, phaseServing))
	return func() error {
		cancel()
		select {
		case err := <-errCh:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after its context was cancelled")
			return nil
		}
	}
}

func TestServeSubmitBasic(t *testing.T) {
	p := New(Config{Workers: 4})
	stop := startServing(t, p)
	var total atomic.Int64
	const subs = 50
	handles := make([]*Handle, 0, subs)
	for i := 0; i < subs; i++ {
		h, err := p.Submit(func(w *Worker) {
			for j := 0; j < 10; j++ {
				w.Spawn(func(*Worker) { total.Add(1) })
			}
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("submission %d: Wait = %v", i, err)
		}
	}
	if got := total.Load(); got != subs*10 {
		t.Fatalf("ran %d of %d spawned tasks", got, subs*10)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", err)
	}
	if got := p.Stats().Submitted; got != subs {
		t.Fatalf("Stats.Submitted = %d, want %d", got, subs)
	}
}

// Submissions work from many goroutines at once — the MPMC half of the
// injector contract — and each Handle resolves independently.
func TestSubmitConcurrentSubmitters(t *testing.T) {
	p := New(Config{Workers: 4})
	stop := startServing(t, p)
	const producers, perProducer = 8, 25
	var total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(producers)
	for g := 0; g < producers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				h, err := p.Submit(func(w *Worker) {
					w.Spawn(func(*Worker) { total.Add(1) })
					total.Add(1)
				})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if err := h.Wait(); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != producers*perProducer*2 {
		t.Fatalf("ran %d of %d tasks", got, producers*perProducer*2)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", err)
	}
}

func TestSubmitNotServing(t *testing.T) {
	p := New(Config{Workers: 2})
	if h, err := p.Submit(func(*Worker) {}); !errors.Is(err, ErrNotServing) || h != nil {
		t.Fatalf("Submit before Serve: handle=%v err=%v, want nil handle and ErrNotServing", h, err)
	}
	stop := startServing(t, p)
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
	if h, err := p.Submit(func(*Worker) {}); !errors.Is(err, ErrNotServing) || h != nil {
		t.Fatalf("Submit after Serve returned: handle=%v err=%v, want nil handle and ErrNotServing", h, err)
	}
}

// A pre-cancelled submission context is rejected up front; a cancellation
// that arrives mid-flight aborts that submission — and only it — and its
// Handle reports the context's error.
func TestSubmitContextCancellation(t *testing.T) {
	p := New(Config{Workers: 2})
	stop := startServing(t, p)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if h, err := p.SubmitContext(pre, func(*Worker) {}); !errors.Is(err, context.Canceled) || h != nil {
		t.Fatalf("pre-cancelled SubmitContext: handle=%v err=%v, want nil handle and context.Canceled", h, err)
	}

	gate := make(chan struct{})
	entered := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	h, err := p.SubmitContext(ctx, func(*Worker) {
		close(entered)
		<-gate
	})
	if err != nil {
		t.Fatalf("SubmitContext: %v", err)
	}
	<-entered // the root is executing, pinned on the gate
	cancel()
	// The Handle resolves to the context error without waiting for the
	// pinned task (a running task cannot be preempted, but the submission's
	// outcome is already decided).
	if werr := h.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}

	// An unrelated submission on the same serving pool is unaffected.
	var ran atomic.Bool
	h2, err := p.Submit(func(*Worker) { ran.Store(true) })
	if err != nil {
		t.Fatalf("Submit after a cancelled sibling: %v", err)
	}
	if err := h2.Wait(); err != nil {
		t.Fatalf("sibling Wait = %v", err)
	}
	if !ran.Load() {
		t.Fatal("sibling submission did not run")
	}

	close(gate)
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// lateCancelCtx is a context that is cancelled already but says so late: its
// first Err — SubmitContext's admission check — reports nil, and its Done
// channel is closed from the start, so the watcher SubmitContext arms fires
// at once, on a goroutine of its own.
type lateCancelCtx struct {
	context.Context
	asked atomic.Bool
}

func (c *lateCancelCtx) Err() error {
	if c.asked.CompareAndSwap(false, true) {
		return nil
	}
	return c.Context.Err()
}

// registered counts the runs in p's registry.
func (p *Pool) registered() int {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	n := 0
	for r := p.active; r != nil; r = r.next {
		n++
	}
	return n
}

// A submission whose context cancels while SubmitContext is still at work
// must not stay in the registry: armed before it was registered, its
// watcher could finish it first, the unregister found nothing, and the
// register that followed left a finished run there for good — and every
// later Drain, in this session or a later one, waiting for it.
func TestCancelBetweenWatchAndRegisterDoesNotLeakRun(t *testing.T) {
	// The window is a few instructions wide and the watcher has to be
	// scheduled into it: before the fix a leak took 1 000 to 30 000
	// submissions to show on two processors.
	const subs = 100000
	p := New(Config{Workers: 2})
	stop := startServing(t, p)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < subs && !t.Failed(); i++ {
		h, err := p.SubmitContext(&lateCancelCtx{Context: cancelled}, func(*Worker) {})
		switch {
		case errors.Is(err, ErrOverloaded):
			// Carcasses: a Wait returns on the cancellation, not when a
			// worker has discarded the root. A shed submission went through
			// the same register and watch, and ended before Submit returned.
			runtime.Gosched()
		case err != nil:
			t.Fatalf("SubmitContext %d: %v", i, err)
		default:
			if err := h.Wait(); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("submission %d: Wait = %v", i, err)
			}
		}
		if n := p.registered(); n != 0 {
			t.Errorf("after submission %d, %d finished submissions are still registered", i, n)
		}
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer dcancel()
	if err := p.Drain(dctx); err != nil {
		t.Errorf("Drain with nothing in flight = %v", err)
	}
	if err := stop(); err != nil {
		t.Errorf("Serve returned %v after a completed drain", err)
	}
}

// A panic inside one submission surfaces as a PanicError from that
// submission's Handle and leaves the pool serving other submissions.
func TestSubmitPanicIsolation(t *testing.T) {
	p := New(Config{Workers: 4})
	stop := startServing(t, p)
	h, err := p.Submit(func(*Worker) { panic("submission failure") })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	werr := h.Wait()
	var pe PanicError
	if !errors.As(werr, &pe) || pe.Value != "submission failure" {
		t.Fatalf("Wait = %v, want PanicError{submission failure}", werr)
	}
	var count atomic.Int64
	h2, err := p.Submit(func(w *Worker) {
		for i := 0; i < 50; i++ {
			w.Spawn(func(*Worker) { count.Add(1) })
		}
	})
	if err != nil {
		t.Fatalf("Submit after a panicked sibling: %v", err)
	}
	if err := h2.Wait(); err != nil {
		t.Fatalf("Wait after a panicked sibling = %v", err)
	}
	if count.Load() != 50 {
		t.Fatalf("ran %d of 50 tasks after a panicked sibling", count.Load())
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// Stopping the service aborts submissions still in flight: their Handles
// complete with ErrStopped rather than waiting forever.
func TestServeStopAbortsInFlight(t *testing.T) {
	p := New(Config{Workers: 2})
	stop := startServing(t, p)
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	var handles []*Handle
	for i := 0; i < 2; i++ {
		h, err := p.Submit(func(*Worker) {
			started <- struct{}{}
			<-gate
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		handles = append(handles, h)
	}
	<-started
	<-started
	stopErr := make(chan error, 1)
	go func() { stopErr <- stop() }()
	// The Handles must resolve with ErrStopped even though the pinned
	// tasks have not returned yet (Serve is still waiting on its workers).
	for i, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("submission %d: Wait wedged across a service stop", i)
		}
		if err := h.Err(); !errors.Is(err, ErrStopped) {
			t.Fatalf("submission %d: Err = %v, want ErrStopped", i, err)
		}
	}
	close(gate) // release the workers so Serve can shut down
	if err := <-stopErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// The batch API still works after a service session on the same pool, and
// vice versa: Run is one submission of the same engine.
func TestRunAfterServe(t *testing.T) {
	p := New(Config{Workers: 4})
	stop := startServing(t, p)
	h, err := p.Submit(func(*Worker) {})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
	var count atomic.Int64
	p.Run(func(w *Worker) {
		for i := 0; i < 50; i++ {
			w.Spawn(func(*Worker) { count.Add(1) })
		}
	})
	if count.Load() != 50 {
		t.Fatalf("Run after Serve executed %d of 50 tasks", count.Load())
	}
	stop = startServing(t, p)
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Serve returned %v", err)
	}
}

// Starting Serve while a Run is in flight (or vice versa) panics with the
// one-engine-at-a-time error instead of corrupting the session.
func TestServeOverlapPanics(t *testing.T) {
	p := New(Config{Workers: 2})
	stop := startServing(t, p)
	defer func() {
		if err := stop(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v", err)
		}
	}()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic from Run while Serve is in flight")
		}
	}()
	p.Run(func(*Worker) {})
}

// plugWorkers submits one gated submission per worker and waits until every
// worker is pinned executing one, so subsequently submitted work stays in
// the injector. Returns the release function.
func plugWorkers(t *testing.T, p *Pool) func() {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, len(p.workers))
	handles := make([]*Handle, 0, len(p.workers))
	for range p.workers {
		h, err := p.Submit(func(*Worker) {
			started <- struct{}{}
			<-gate
		})
		if err != nil {
			t.Fatalf("plug Submit: %v", err)
		}
		handles = append(handles, h)
	}
	for range p.workers {
		<-started
	}
	return func() {
		close(gate)
		for _, h := range handles {
			if err := h.Wait(); err != nil {
				t.Fatalf("plug Wait: %v", err)
			}
		}
	}
}

// The overload contract: a full injector rejects with ErrOverloaded and a
// nil Handle — never a silent drop — and every accepted submission still
// completes (never a wedged Wait).
func TestSubmitOverloadReject(t *testing.T) {
	p := New(Config{Workers: 2, InjectorCapacity: 2})
	stop := startServing(t, p)
	release := plugWorkers(t, p)

	var done atomic.Int64
	accepted := make([]*Handle, 0, 2)
	for i := 0; i < 2; i++ { // fill the two-slot injector
		h, err := p.Submit(func(*Worker) { done.Add(1) })
		if err != nil {
			t.Fatalf("fill Submit %d: %v", i, err)
		}
		accepted = append(accepted, h)
	}
	h, err := p.Submit(func(*Worker) { done.Add(1) })
	if !errors.Is(err, ErrOverloaded) || h != nil {
		t.Fatalf("overflow Submit: handle=%v err=%v, want nil handle and ErrOverloaded", h, err)
	}
	if got := p.Stats().SubmitsRejected; got != 1 {
		t.Fatalf("Stats.SubmitsRejected = %d, want 1", got)
	}

	release()
	for i, h := range accepted {
		if err := h.Wait(); err != nil {
			t.Fatalf("accepted submission %d: Wait = %v after the overload episode", i, err)
		}
	}
	if got := done.Load(); got != 2 {
		t.Fatalf("ran %d accepted submissions, want 2 (and not the rejected one)", got)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// Submissions from inside a task running on the pool: a submission may
// seed follow-on submissions, each an independent run record.
func TestSubmitFromTask(t *testing.T) {
	p := New(Config{Workers: 4})
	stop := startServing(t, p)
	var inner atomic.Int64
	innerHandles := make(chan *Handle, 10)
	h, err := p.Submit(func(*Worker) {
		for i := 0; i < 10; i++ {
			ih, err := p.Submit(func(*Worker) { inner.Add(1) })
			if err != nil {
				t.Errorf("nested Submit: %v", err)
				return
			}
			innerHandles <- ih
		}
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("outer Wait: %v", err)
	}
	close(innerHandles)
	for ih := range innerHandles {
		if err := ih.Wait(); err != nil {
			t.Fatalf("inner Wait: %v", err)
		}
	}
	if got := inner.Load(); got != 10 {
		t.Fatalf("ran %d of 10 nested submissions", got)
	}
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}
