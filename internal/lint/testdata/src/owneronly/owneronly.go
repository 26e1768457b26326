// Package owneronly is the analysistest fixture for the owneronly
// analyzer: PushBottom/PopBottom references must sit in a function that is
// annotated //abp:owner, or statically reachable from one and from no
// caller outside that closure.
package owneronly

type deque struct{ items []*int }

func (d *deque) PushBottom(v *int) bool {
	d.items = append(d.items, v)
	return true
}

func (d *deque) PopBottom() *int {
	if len(d.items) == 0 {
		return nil
	}
	v := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return v
}

// run is the worker loop: it owns d for the lifetime of the run.
//
//abp:owner
func run(d *deque) {
	for d.PopBottom() != nil { // accepted: annotated owner root
	}
	helper(d)
}

// helper inherits the owner context: it is statically reachable from run.
func helper(d *deque) {
	d.PushBottom(new(int)) // accepted: reachable from an //abp:owner root
}

// rogue is reachable from no owner root; both references are violations.
func rogue(d *deque) {
	d.PushBottom(new(int)) // want `PushBottom called outside an owner context`
	pop := d.PopBottom     // want `PopBottom called outside an owner context`
	pop()
}

// spawner shows that ownership does NOT cross a go statement: the spawned
// callee and the spawned closure run on a different goroutine, so their
// owner-only operations are violations even though spawner is annotated.
//
//abp:owner
func spawner(d *deque) {
	go sidekick(d)
	go func() {
		d.PushBottom(new(int)) // want `PushBottom called outside an owner context`
	}()
}

// sidekick is only ever launched with go, never called: not owned.
func sidekick(d *deque) {
	for d.PopBottom() != nil { // want `PopBottom called outside an owner context`
	}
}

// inline shows the two literal shapes that DO inherit ownership — an
// immediately invoked closure and a deferred closure both run on the
// owner's goroutine — and the one that does not: a literal bound to a
// variable escapes as a value, and a call through that variable cannot be
// resolved statically, so the literal is conservatively unowned.
//
//abp:owner
func inline(d *deque) {
	func() {
		d.PushBottom(new(int)) // accepted: invoked in place on the owner goroutine
	}()
	defer func() {
		d.PopBottom() // accepted: defer runs on the owner goroutine
	}()
	fn := func() {
		d.PushBottom(new(int)) // want `PushBottom called outside an owner context`
	}
	fn()
}

// ring is a submission queue any goroutine may push to.
type ring struct{ items []*int }

func (r *ring) TryPush(v *int) bool { return len(r.items) < 0 }

// offer is the injector's push, written once for a submitting goroutine
// (submit) and for a worker handing its tasks on (retire, an owner root):
// reachable from an owner, but a caller outside the closure reaches it
// too, so its overflow onto a worker's deque is a violation (E40's
// owner-offer-overflow).
func offer(r *ring, d *deque, v *int) bool {
	return r.TryPush(v) || d.PushBottom(v) // want `PushBottom called outside an owner context`
}

func submit(r *ring, d *deque) bool { return offer(r, d, new(int)) }

//abp:owner
func retire(r *ring, d *deque) {
	for v := d.PopBottom(); v != nil; v = d.PopBottom() { // accepted: annotated owner root
		offer(r, d, v)
	}
}

var _ = run
var _ = rogue
var _ = spawner
var _ = inline
var _ = submit
var _ = retire
