package sim

import "worksteal/internal/dag"

// lazyDeque is lazy exposure (Rito and Paulino, "Scheduling computations
// with provably low synchronization overheads"), the policy internal/sched
// runs: the owner's newest k pushes sit in a private region beneath the
// ABP deque, out of every thief's reach, and cost no store to a shared
// word. Three rules keep the work stealer's bounds within reach (DESIGN.md
// §7, "Lazy exposure"):
//
//  1. Oldest node public: a push goes private only while the public part
//     is non-empty; a push that finds it empty with nodes in the region, or
//     the region full, first publishes the region's oldest node with an ABP
//     pushBottom.
//  2. Publish on request: a thief whose popTop finds the public part empty
//     sets the owner's want flag; the owner polls the flag as it executes
//     each node (process.step) and, if the region holds nodes, clears it
//     and publishes them all (startPoll).
//  3. The public part and the region are one deque to the owner: popBottom
//     takes the region's newest node first.
//
// A preempted owner therefore strands at most k nodes, each younger than a
// node it left stealable.
type lazyDeque struct {
	pub    *abpDeque
	region []dag.NodeID // oldest first, at most k
	k      int
	want   bool
	// privateOps counts the pushes and pops the region served.
	privateOps int
	// flagStores counts the stores to want: a thief's request, the owner's
	// clear.
	flagStores int
}

func newLazyDeque(capacity, tagBits, k int) *lazyDeque {
	return &lazyDeque{pub: newABPDeque(capacity, tagBits), k: k, region: make([]dag.NodeID, 0, k)}
}

func (d *lazyDeque) lockHolder() int { return -1 }

func (d *lazyDeque) size() int { return d.pub.size() + len(d.region) }

// snapshot is the region, newest first, below the public part.
func (d *lazyDeque) snapshot() []dag.NodeID {
	out := make([]dag.NodeID, 0, d.size())
	for i := len(d.region); i > 0; i-- {
		out = append(out, d.region[i-1])
	}
	return append(out, d.pub.snapshot()...)
}

// fences counts the stores and CASes on words other processes read.
func (d *lazyDeque) fences() int { return d.pub.fences + d.flagStores }

// What follows an owner operation's publishes.
const (
	tailNone  = iota
	tailStore // the push's store into the region: one instruction
	tailPush  // the push goes public: an ABP pushBottom of the node
	tailPop   // the region is empty: an ABP popBottom
)

// lazyOp is an owner operation: one instruction that decides, the ABP
// pushes that publish the region's oldest nodes, then what the operation
// itself does (tail).
type lazyOp struct {
	d       *lazyDeque
	kind    int // 0 push, 1 popBottom, 2 expose
	node    dag.NodeID
	planned bool
	publish int // region nodes still to publish
	tail    int
	sub     op
	subTail bool // sub is the tail's own ABP operation
	res     dag.NodeID
}

func (d *lazyDeque) startPushBottom(_ int, node dag.NodeID) op {
	return &lazyOp{d: d, kind: 0, node: node, res: dag.None}
}

func (d *lazyDeque) startPopBottom(_ int) op {
	return &lazyOp{d: d, kind: 1, res: dag.None}
}

// startPoll is the owner's poll of the request flag, made as it executes
// a node: a request for the nodes the region holds is answered by an
// expose — clear the flag, then publish the region. A request to an empty
// region stands until the region holds a node: clearing it would only
// invite the next miss to store it again.
func (d *lazyDeque) startPoll(_ int) op {
	if !d.want || len(d.region) == 0 {
		return nil
	}
	return &lazyOp{d: d, kind: 2, res: dag.None}
}

// step runs one instruction. The first decides: a push loads the public
// part's size (bot and age, as Len reads them); a pop takes the region's
// newest node if there is one; an expose clears the flag.
func (o *lazyOp) step() bool {
	d := o.d
	switch {
	case !o.planned:
		o.planned = true
		n := len(d.region)
		switch o.kind {
		case 0:
			o.tail = tailStore
			switch pub := d.pub.size(); {
			case pub == 0 && n == 0:
				o.tail = tailPush
			case pub == 0 || n == d.k:
				o.publish = 1
			}
		case 1:
			if n > 0 {
				o.res = d.region[n-1]
				d.region = d.region[:n-1]
				d.privateOps++
				return true
			}
			o.tail = tailPop
		case 2:
			d.want = false
			d.flagStores++
			o.publish = n
		}
	case o.sub != nil:
		if !o.sub.step() {
			return false
		}
		if o.subTail {
			o.res = o.sub.result()
			return true
		}
		o.sub = nil
	default: // tailStore
		d.region = append(d.region, o.node)
		d.privateOps++
		return true
	}
	return o.advance()
}

// advance starts what comes next — a publish, or the tail's ABP operation
// — and reports whether nothing does. Starting an operation is no
// instruction; its first step is the next one.
func (o *lazyOp) advance() bool {
	d := o.d
	switch {
	case o.publish > 0:
		x := d.region[0]
		d.region = append(d.region[:0], d.region[1:]...)
		o.publish--
		o.sub = d.pub.startPushBottom(0, x)
	case o.tail == tailPush:
		o.sub, o.subTail = d.pub.startPushBottom(0, o.node), true
	case o.tail == tailPop:
		o.sub, o.subTail = d.pub.startPopBottom(0), true
	case o.tail == tailStore:
	default:
		return true
	}
	return false
}

func (o *lazyOp) result() dag.NodeID { return o.res }

// lazyPopTopOp is a thief's popTop on a lazy deque: the ABP popTop, then,
// if it found the public part empty, one more instruction that sets the
// owner's want flag (a store only if the flag is clear).
type lazyPopTopOp struct {
	d   *lazyDeque
	sub op
	res dag.NodeID
}

func (d *lazyDeque) startPopTop(_ int) op {
	return &lazyPopTopOp{d: d, sub: d.pub.startPopTop(0), res: dag.None}
}

func (o *lazyPopTopOp) step() bool {
	if o.sub != nil {
		if !o.sub.step() {
			return false
		}
		o.res = o.sub.result()
		o.sub = nil
		return o.res != dag.None || o.d.pub.size() > 0
	}
	if !o.d.want {
		o.d.want = true
		o.d.flagStores++
	}
	return true
}

func (o *lazyPopTopOp) result() dag.NodeID { return o.res }
