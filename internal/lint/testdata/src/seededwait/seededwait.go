// Package seededwait permanently replays the two liveness bugs this
// repository actually shipped, in the miniature Pool/Worker shape the
// other seeded fixtures use. If abpwait ever stops flagging either, the
// analyzer has regressed below the bar that history set:
//
//   - PR-1 lost wakeup: a parked worker blocks on its per-worker token
//     channel, but no producer path deposits a token — work submitted
//     while every worker slept was never executed. (The production fix is
//     signalWork's select-with-default send plus the Dekker re-check;
//     lifecycle.go.)
//   - PR-6 invisible nap: backoff slept with a bare time.Sleep, so a
//     napping worker was invisible to signalWork and a submission
//     arriving mid-nap silently waited out the remaining sleep — up to
//     ~127µs of wake latency. (The fix selected on the wake token with a
//     timer case; park in lifecycle.go has since dropped the naps.)
package seededwait

import (
	"sync/atomic"
	"time"
)

// Pool is the PR-1-era scheduler skeleton.
type Pool struct {
	workers []*Worker
	stopped atomic.Bool
}

// Worker parks on a token channel nobody fills.
type Worker struct {
	pool   *Pool
	parkCh chan struct{}
	parked atomic.Bool
}

// Start launches the worker fleet.
func (p *Pool) Start() {
	for _, w := range p.workers {
		go w.loop()
	}
}

func (w *Worker) loop() {
	fails := 0
	for !w.pool.stopped.Load() {
		if w.steal() {
			fails = 0
			continue
		}
		fails++
		if fails < 8 {
			w.napBackoff(time.Microsecond << fails)
			continue
		}
		w.park()
	}
}

func (w *Worker) steal() bool { return false }

// park is the PR-1 bug: the worker publishes its parked flag and blocks
// on its token channel — but no send or close of parkCh exists anywhere,
// so the wakeup this wait needs can never be delivered.
func (w *Worker) park() {
	w.parked.Store(true)
	<-w.parkCh // want `naked wait`
	w.parked.Store(false)
}

// napBackoff is the PR-6 bug: the backoff nap is a bare sleep inside the
// worker's polling loop, invisible to any signaller for its full length.
func (w *Worker) napBackoff(d time.Duration) {
	time.Sleep(d) // want `missed signal`
}
