// Package sim is an instruction-level simulator of the paper's model of
// multiprogrammed execution (Section 2) running the non-blocking work
// stealer (Section 3, Figures 3 and 5).
//
// Each of the P processes is a state machine that executes the scheduling
// loop one shared-memory instruction at a time. The kernel — an adversary —
// schedules processes in rounds: at each round it picks a subset of the
// processes and an instruction budget between 2C and 3C for each, and the
// engine interleaves their instructions step by step. Because the engine is
// single-threaded, each instruction is atomic by construction, which is
// exactly the paper's synchronous model ("the effect of step i is equivalent
// to some serial execution of the p_i instructions").
//
// The simulator supports the paper's yield primitives (yieldToRandom,
// yieldToAll) as scheduling constraints on the kernel, the four adversary
// classes (dedicated, benign, oblivious, adaptive), an ablation with a
// lock-based deque, and an injectable tag width that reproduces the ABA
// failure the tag field exists to prevent.
package sim

import (
	"fmt"

	"worksteal/internal/dag"
)

// Age is the paper's age structure: a tag and the top index, packed into a
// single word in a real implementation (see package deque); the simulator
// keeps the fields separate and compares them structurally, which is
// equivalent.
type Age struct {
	Tag uint32
	Top uint32
}

// op is a multi-instruction deque operation in flight. Each call to step
// executes exactly one instruction; step reports true when the invocation
// has completed, after which result is valid.
type op interface {
	step() bool
	result() dag.NodeID
}

// dequeOps abstracts the two deque implementations the simulator can run:
// the paper's non-blocking ABP deque and a lock-based deque for the E8
// ablation.
type dequeOps interface {
	// caller identifies the process performing the operation, so that the
	// lock-based variant can record its lock holder.
	startPushBottom(caller int, node dag.NodeID) op
	startPopBottom(caller int) op
	startPopTop(caller int) op
	// snapshot returns the current contents from bottom to top (the paper's
	// x1..xk ordering in Lemma 3). Only meaningful when the owner has no
	// operation in flight.
	snapshot() []dag.NodeID
	// size estimates the number of items (bot - top, clamped at 0).
	size() int
	// lockHolder returns the id of the process holding the deque's lock,
	// or -1 (always -1 for the non-blocking deque).
	lockHolder() int
	// startPoll is what the owner's poll as it executes a node calls for:
	// nil but on the lazy deque, whose answer to a thief's request is an
	// operation that publishes its private region.
	startPoll(caller int) op
}

// abpDeque is the simulator's ABP deque. tagMask limits the effective tag
// width: ^uint32(0) is the realistic 32-bit tag, 0 disables the tag
// entirely (demonstrating the ABA failure the tag prevents).
type abpDeque struct {
	age     Age
	bot     uint32
	deq     []dag.NodeID
	tagMask uint32
	// casFailures counts failed CAS instructions, for the contention stats.
	casFailures int
	// fences counts the stores and CASes: each a fence on amd64, where
	// every store to a word another process reads is sequentially
	// consistent.
	fences int
}

func newABPDeque(capacity int, tagBits int) *abpDeque {
	if tagBits < 0 || tagBits > 32 {
		panic(fmt.Sprintf("sim: tagBits %d out of range", tagBits))
	}
	var mask uint32
	if tagBits == 32 {
		mask = ^uint32(0)
	} else {
		mask = (uint32(1) << tagBits) - 1
	}
	return &abpDeque{deq: make([]dag.NodeID, capacity), tagMask: mask}
}

func (d *abpDeque) lockHolder() int { return -1 }

func (d *abpDeque) startPoll(int) op { return nil }

func (d *abpDeque) size() int {
	if d.bot <= d.age.Top {
		return 0
	}
	return int(d.bot - d.age.Top)
}

func (d *abpDeque) snapshot() []dag.NodeID {
	if d.bot <= d.age.Top {
		return nil
	}
	out := make([]dag.NodeID, 0, d.bot-d.age.Top)
	for i := d.bot; i > d.age.Top; i-- {
		out = append(out, d.deq[i-1])
	}
	return out
}

// pushBottomOp implements Figure 5 pushBottom: three instructions.
type pushBottomOp struct {
	d        *abpDeque
	node     dag.NodeID
	pc       int
	localBot uint32
}

func (d *abpDeque) startPushBottom(_ int, node dag.NodeID) op {
	return &pushBottomOp{d: d, node: node}
}

func (o *pushBottomOp) step() bool {
	switch o.pc {
	case 0: // load localBot <- bot
		o.localBot = o.d.bot
		o.pc++
		return false
	case 1: // store node -> deq[localBot]
		o.d.deq[o.localBot] = o.node
		o.d.fences++
		o.pc++
		return false
	case 2: // store localBot+1 -> bot
		o.d.bot = o.localBot + 1
		o.d.fences++
		o.pc++
		return true
	}
	panic("sim: pushBottom stepped after completion")
}

func (o *pushBottomOp) result() dag.NodeID { return dag.None }

// popTopOp implements Figure 5 popTop: two instructions when the deque is
// observed empty, four otherwise (load age, load bot, load node, cas).
type popTopOp struct {
	d      *abpDeque
	pc     int
	oldAge Age
	node   dag.NodeID
	res    dag.NodeID
}

func (d *abpDeque) startPopTop(_ int) op {
	return &popTopOp{d: d, res: dag.None}
}

func (o *popTopOp) step() bool {
	switch o.pc {
	case 0: // load oldAge <- age
		o.oldAge = o.d.age
		o.pc++
		return false
	case 1: // load localBot <- bot; if localBot <= oldAge.top return NIL
		if o.d.bot <= o.oldAge.Top {
			o.res = dag.None
			o.pc = 4
			return true
		}
		o.pc++
		return false
	case 2: // load node <- deq[oldAge.top]
		o.node = o.d.deq[o.oldAge.Top]
		o.pc++
		return false
	case 3: // cas(age, oldAge, newAge)
		o.d.fences++
		newAge := Age{Tag: o.oldAge.Tag, Top: o.oldAge.Top + 1}
		if o.d.age == o.oldAge {
			o.d.age = newAge
			o.res = o.node
		} else {
			o.d.casFailures++
			o.res = dag.None
		}
		o.pc++
		return true
	}
	panic("sim: popTop stepped after completion")
}

func (o *popTopOp) result() dag.NodeID { return o.res }

// popBottomOp implements Figure 5 popBottom: between one and seven
// instructions depending on the path taken.
type popBottomOp struct {
	d        *abpDeque
	pc       int
	localBot uint32
	node     dag.NodeID
	oldAge   Age
	newAge   Age
	res      dag.NodeID
}

func (d *abpDeque) startPopBottom(_ int) op {
	return &popBottomOp{d: d, res: dag.None}
}

func (o *popBottomOp) step() bool {
	switch o.pc {
	case 0: // load localBot <- bot; if 0 return NIL
		o.localBot = o.d.bot
		if o.localBot == 0 {
			o.res = dag.None
			o.pc = 7
			return true
		}
		o.localBot--
		o.pc++
		return false
	case 1: // store localBot -> bot
		o.d.bot = o.localBot
		o.d.fences++
		o.pc++
		return false
	case 2: // load node <- deq[localBot]
		o.node = o.d.deq[o.localBot]
		o.pc++
		return false
	case 3: // load oldAge <- age; if localBot > oldAge.top return node
		o.oldAge = o.d.age
		if o.localBot > o.oldAge.Top {
			o.res = o.node
			o.pc = 7
			return true
		}
		o.pc++
		return false
	case 4: // store 0 -> bot
		o.d.bot = 0
		o.d.fences++
		o.newAge = Age{Tag: (o.oldAge.Tag + 1) & o.d.tagMask, Top: 0}
		o.pc++
		return false
	case 5: // if localBot == oldAge.top: cas(age, oldAge, newAge)
		if o.localBot == o.oldAge.Top {
			o.d.fences++
			if o.d.age == o.oldAge {
				o.d.age = o.newAge
				o.res = o.node
				o.pc = 7
				return true
			}
			o.d.casFailures++
		}
		o.pc++
		return false
	case 6: // store newAge -> age; return NIL
		o.d.age = o.newAge
		o.d.fences++
		o.res = dag.None
		o.pc++
		return true
	}
	panic("sim: popBottom stepped after completion")
}

func (o *popBottomOp) result() dag.NodeID { return o.res }
