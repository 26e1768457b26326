package sim

import "worksteal/internal/dag"

// lockDeque is the blocking baseline for the E8 ablation: every method
// acquires a test-and-set spinlock, mutates a plain stack, and releases.
// In a dedicated environment it behaves like any deque, but if the kernel
// preempts a process while it holds the lock, every other process that
// touches this deque spins fruitlessly — the failure mode the paper's
// non-blocking implementation exists to avoid ("if the kernel preempts a
// process, it does not hinder other processes, for example by holding
// locks").
type lockDeque struct {
	items  []dag.NodeID
	locked bool
	holder int // process id holding the lock; -1 when free
	// spinSteps counts instructions burned waiting for the lock.
	spinSteps int
}

func newLockDeque(capacity int) *lockDeque {
	return &lockDeque{items: make([]dag.NodeID, 0, capacity), holder: -1}
}

func (d *lockDeque) lockHolder() int {
	if d.locked {
		return d.holder
	}
	return -1
}

func (d *lockDeque) size() int { return len(d.items) }

func (d *lockDeque) startPoll(int) op { return nil }

// snapshot returns bottom..top order; items[0] is the top of the deque.
func (d *lockDeque) snapshot() []dag.NodeID {
	out := make([]dag.NodeID, 0, len(d.items))
	for i := len(d.items); i > 0; i-- {
		out = append(out, d.items[i-1])
	}
	return out
}

// lockedOp is a three-phase locked operation: acquire (spinning one
// instruction per failed attempt), body, release.
type lockedOp struct {
	d     *lockDeque
	owner int
	pc    int // 0: acquiring, 1: body, 2: release
	kind  int // 0 push, 1 popBottom, 2 popTop
	node  dag.NodeID
	res   dag.NodeID
}

func (d *lockDeque) startPushBottom(caller int, node dag.NodeID) op {
	return &lockedOp{d: d, kind: 0, node: node, res: dag.None, owner: caller}
}

func (d *lockDeque) startPopBottom(caller int) op {
	return &lockedOp{d: d, kind: 1, res: dag.None, owner: caller}
}

func (d *lockDeque) startPopTop(caller int) op {
	return &lockedOp{d: d, kind: 2, res: dag.None, owner: caller}
}

// step is only ever driven from (*process).step on the single-threaded
// engine goroutine, which is the one owner of every simulated deque.
//
//abp:owner driven only by the single-threaded engine via (*process).step
func (o *lockedOp) step() bool {
	switch o.pc {
	case 0: // test-and-set; spin (one instruction per attempt)
		if o.d.locked {
			o.d.spinSteps++
			return false // stay at pc 0: spinning
		}
		o.d.locked = true
		o.d.holder = o.owner
		o.pc++
		return false
	case 1: // operation body (one instruction, under the lock)
		switch o.kind {
		case 0:
			o.d.items = append(o.d.items, o.node)
		case 1:
			if n := len(o.d.items); n > 0 {
				o.res = o.d.items[n-1]
				o.d.items = o.d.items[:n-1]
			}
		case 2:
			if len(o.d.items) > 0 {
				o.res = o.d.items[0]
				o.d.items = o.d.items[1:]
			}
		}
		o.pc++
		return false
	case 2: // release
		o.d.locked = false
		o.d.holder = -1
		o.pc++
		return true
	}
	panic("sim: locked op stepped after completion")
}

func (o *lockedOp) result() dag.NodeID { return o.res }
