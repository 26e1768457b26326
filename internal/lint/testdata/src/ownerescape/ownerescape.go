// Package ownerescape is the analysistest fixture for the ownerescape
// analyzer: inside an //abp:owner function (or a literal it owns), a
// deque-typed value must not escape via go statements, channel sends, or
// stores into fields, elements, composite literals, or package variables.
package ownerescape

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

type registry struct{ d *deque }

var global *deque

func consume(*deque) {}

func worker(d *deque) {}

// run is the audited owner context; every escape below manufactures a
// second owner.
//
//abp:owner
func run(d *deque, ch chan *deque, r *registry) {
	d.PushBottom(new(int)) // accepted: owner-only op, no escape
	consume(d)             // accepted: static call, the callee stays on this goroutine
	local := d             // accepted: a local alias does not escape
	_ = local

	go worker(d)               // want `passes deque d to a go statement`
	go d.PopBottom()           // want `escapes deque d into a go statement`
	go func() { consume(d) }() // want `launches a closure capturing deque d`
	ch <- d                    // want `sends deque d on a channel`
	r.d = d                    // want `stores deque d into r.d`
	global = d                 // want `stores deque d into global`
	_ = registry{d: d}         // want `embeds deque d in a composite literal`

	//abp:ignore owner the logger goroutine only reads Len, and joins before the run ends
	go worker(d) // accepted: justified ignore
}

// inherited literals are owned too: an immediately invoked closure runs on
// the owner's goroutine, so its escapes are also audited.
//
//abp:owner
func inherited(d *deque, ch chan *deque) {
	func() {
		ch <- d // want `sends deque d on a channel`
	}()
}

// setup is not an owner context: wiring a deque into its pool at
// construction time is the caller's business, not an ownership escape.
func setup(r *registry, d *deque) {
	r.d = d      // accepted: not inside an //abp:owner context
	global = d   // accepted: not inside an //abp:owner context
	go worker(d) // accepted: not inside an //abp:owner context
}

var (
	_ = run
	_ = inherited
	_ = setup
)
