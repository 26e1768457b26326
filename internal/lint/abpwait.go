// abpwait: whole-package liveness analysis — the wait/signal counterpart
// to abprace's happens-before machinery. Where the other eleven analyzers
// guard safety properties (no races, no ABA, no false sharing), abpwait
// guards the property the paper's §3.2/§6 bounds actually assert:
// *progress*. Both historical shipped bugs in the park/wake machinery were
// liveness bugs — the PR-1 lost wakeup (a worker blocked on a token nobody
// could deposit) and the PR-6 invisible backoff nap (a bare time.Sleep a
// signal could not cut short) — and neither violated any safety contract.
//
// The analysis builds a wait/signal graph over the package:
//
//   - WAIT sites: bare channel receives, range-over-channel loops,
//     blocking selects (no default), Wait/Join-shaped calls
//     (sync.WaitGroup.Wait and body-less or cross-package Wait/Join
//     methods), and bare time.Sleep naps. Each is attributed to the
//     goroutine roots (abprace's inference) that can be blocked there.
//   - SIGNAL sites: channel sends (including token deposits inside
//     select-with-default), close calls, and WaitGroup Add/Done.
//
// and reports four finding classes:
//
//  1. naked-wait — a blocking wait whose awaited object has no signal
//     site reachable from any root that can run concurrently with the
//     waiter (nobody can ever wake it). Matching is by identity variable
//     first (abprace's leafVar); a variable with no signal entries at all
//     falls back to channel-type matching, so a channel that travels
//     through locals or parameters (Group.Wait's *ch) still finds its
//     close. The type fallback over-approximates liveness — that is the
//     conservative direction for a liveness check.
//  2. missed-signal — a bare time.Sleep on a non-external goroutine root
//     inside a loop (its own CFG cycle, or transitively called from a
//     call site on one). A sleeping poller is invisible to signallers: a
//     wake arriving mid-nap silently waits out the remaining sleep, the
//     exact PR-6 bug. The fix shape is park's register→re-check→block
//     select on a wake token, plus a timer case if the wait is timed
//     (lifecycle.go).
//  3. wait-cycle — a cycle in the inter-root wait-for graph in which
//     every signal that could release each wait is itself sequenced
//     after the signaller's own escape-less wait, and no timeout/quit/
//     abort case breaks any edge: a static deadlock shape. An edge
//     A →(obj) B exists only when every one of B's signal sites for obj
//     is dominated by one of B's own hard waits in the same function
//     (a deferred signal counts as blocked when its function hard-waits
//     at all) — the send-then-Wait idiom therefore never edges.
//  4. unbounded-block — a blocking select on a non-external root with no
//     escape case (quit/abort/stop-named channel, ctx.Done()-shaped
//     call, timer, or default): a stopped pool strands the goroutine
//     forever. park, Future.Join, and the watchdog all carry such a
//     case; this check turns that convention into a contract.
//
// Escape channels are recognised by shape, not provenance: a receive from
// a method call named Done (context.Context, Handle), a time.Timer/Ticker
// .C field or time.After/Tick call, or a channel whose identity variable's
// name contains quit/stop/abort/cancel/done/fail/finish/exit/kill/close/
// term. Those channels are also exempt from naked-wait — they are
// runtime- or shutdown-signalled by construction.
//
// Over-approximations, both deliberate (DESIGN.md §8): waits inside
// function literals that only escape as values have no goroutine context
// and are skipped (abprace's silence rule); signals in such literals
// conservatively count as present for naked-wait (their eventual caller
// is unknown, so they may well fire). Findings are waived with a
// justified //abp:wait-ignore directive.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AbpWait reports statically detectable liveness hazards: waits nobody
// can signal, polling sleeps invisible to signallers, inter-goroutine
// wait cycles, and escape-less blocking selects on worker roots.
var AbpWait = &Analyzer{
	Name: "abpwait",
	Doc: "report liveness hazards over the package's wait/signal graph: naked-wait " +
		"(no concurrent root can signal the awaited object), missed-signal (bare " +
		"time.Sleep polling loops, the PR-6 nap bug shape), wait-cycle (static " +
		"deadlock among goroutine roots), and unbounded-block (blocking select " +
		"with no quit/abort/ctx.Done escape on a worker root)",
	Run: runAbpWait,
}

// waitKind classifies a blocking site.
type waitKind uint8

const (
	waitRecv   waitKind = iota // <-ch outside a select
	waitRange                  // for range ch
	waitSelect                 // select without default
	waitWG                     // sync.WaitGroup.Wait
	waitOpaque                 // body-less/cross-package Wait/Join call
	waitSleep                  // bare time.Sleep
)

// A waitObj is one object a wait site blocks on. exempt marks escape
// channels (timers, Done()-shaped calls, quit/stop-named channels):
// signalled by the runtime or the shutdown path by construction, they are
// excluded from naked-wait and never form wait-cycle edges.
type waitObj struct {
	v      *types.Var // identity variable; nil when unresolvable
	typ    types.Type // channel type, for fallback matching
	name   string     // rendered for diagnostics
	exempt bool
}

// A waitSite is one blocking site, attributed to the function containing
// it (goroutine roots come from the inference, per function).
type waitSite struct {
	fn     *funcNode
	node   ast.Node // the recv/range/select/call node
	kind   waitKind
	objs   []waitObj
	escape bool // some case/object lets the blocked goroutine out
	desc   string
}

// A signalSite is one send/close/WaitGroup-counter operation.
type signalSite struct {
	fn   *funcNode
	node ast.Node
	v    *types.Var // identity variable of the signalled object; may be nil
	typ  types.Type
	wg   bool // WaitGroup Add/Done: identity-matched only, never by type
	// deferred signals run at their function's return — after every wait
	// in its body, whatever the lexical order says.
	deferred bool
	op       string
}

// A waitGraph is the package's wait and signal sites over the fact
// layer's call graph, goroutine roots and CFGs.
type waitGraph struct {
	*pkgFacts
	pass    *Pass
	waits   []*waitSite
	signals []*signalSite
	byVar   map[*types.Var][]*signalSite
	// loopy marks functions whose every execution may repeat: called
	// from a call site on a caller's CFG cycle, transitively.
	loopy map[*funcNode]bool
}

func runAbpWait(pass *Pass) error {
	a := collectWaits(pass)
	a.reportNakedWaits()
	a.reportMissedSignals()
	a.reportWaitCycles()
	a.reportUnboundedBlocks()
	return nil
}

// collectWaits records the wait and signal sites of every function node
// (declarations and literals alike — a signal in an escaping literal still
// counts).
func collectWaits(pass *Pass) *waitGraph {
	a := &waitGraph{pkgFacts: pass.facts, pass: pass, byVar: map[*types.Var][]*signalSite{}}
	for _, n := range a.graph.nodes {
		a.scan(n)
	}
	for _, s := range a.signals {
		if s.v != nil {
			a.byVar[s.v] = append(a.byVar[s.v], s)
		}
	}
	a.computeLoopy()
	return a
}

// roots returns the goroutine roots that can be executing fn.
func (a *waitGraph) roots(fn *funcNode) []*gRoot { return a.gs.ctx[fn] }

// escapeNameParts are the substrings that mark a channel as a shutdown/
// completion escape by naming convention (quit, stopCh, abort, fail,
// finished, cancel, exitC, ...).
var escapeNameParts = []string{
	"quit", "stop", "abort", "cancel", "done", "fail", "finish",
	"exit", "kill", "close", "term",
}

func escapeName(name string) bool {
	l := strings.ToLower(name)
	for _, p := range escapeNameParts {
		if strings.Contains(l, p) {
			return true
		}
	}
	return false
}

// timerChan reports whether e denotes a runtime-signalled timer channel:
// the C field of a time.Timer/Ticker, or a time.After/time.Tick call.
func (a *waitGraph) timerChan(e ast.Expr) bool {
	info := a.info
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v := leafVar(info, x); v != nil && v.Name() == "C" &&
			v.Pkg() != nil && v.Pkg().Path() == "time" {
			return true
		}
	case *ast.CallExpr:
		if fn := calleeFunc(info, x); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "time" {
			switch fn.Name() {
			case "After", "Tick":
				return true
			}
		}
	}
	return false
}

// doneCall reports whether e is a call to a method named Done — the
// ctx.Done() / Handle.Done() shape, a channel whose closer is the
// runtime's cancellation machinery or the completion path.
func (a *waitGraph) doneCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(a.info, call)
	return fn != nil && fn.Name() == "Done" &&
		fn.Type().(*types.Signature).Recv() != nil
}

// chanObj resolves the channel expression of a receive into a waitObj.
func (a *waitGraph) chanObj(e ast.Expr) waitObj {
	info := a.info
	o := waitObj{typ: info.TypeOf(e), name: exprString(e)}
	if a.timerChan(e) || a.doneCall(e) {
		o.exempt = true
		return o
	}
	o.v = leafVar(info, e)
	if o.v != nil {
		o.name = o.v.Name()
		if escapeName(o.v.Name()) {
			o.exempt = true
		}
	}
	return o
}

// scan walks fn's own body (nested literals are their own nodes) and
// records its wait and signal sites.
func (a *waitGraph) scan(fn *funcNode) {
	if fn.body() == nil {
		return
	}
	info := a.info
	// Receives that are comm clauses of a select belong to the select's
	// site, not to a standalone recv site; deferred calls are signals that
	// fire at return, not at their lexical position.
	inSelect := map[ast.Node]bool{}
	deferCalls := map[*ast.CallExpr]bool{}
	fn.inspectOwn(func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferCalls[d.Call] = true
		}
		return true
	})
	fn.inspectOwn(func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectStmt:
			a.collectSelect(fn, x, inSelect)
		case *ast.UnaryExpr:
			if x.Op != token.ARROW || inSelect[x] {
				return true
			}
			obj := a.chanObj(x.X)
			a.waits = append(a.waits, &waitSite{
				fn: fn, node: x, kind: waitRecv, objs: []waitObj{obj},
				escape: obj.exempt,
				desc:   "receive on " + obj.name,
			})
		case *ast.RangeStmt:
			if !isChanType(info.TypeOf(x.X)) {
				return true
			}
			obj := a.chanObj(x.X)
			a.waits = append(a.waits, &waitSite{
				fn: fn, node: x, kind: waitRange, objs: []waitObj{obj},
				escape: obj.exempt,
				desc:   "range over " + obj.name,
			})
		case *ast.SendStmt:
			a.signals = append(a.signals, &signalSite{
				fn: fn, node: x, v: leafVar(info, x.Chan),
				typ: info.TypeOf(x.Chan), op: "send",
			})
		case *ast.CallExpr:
			a.classifyCall(fn, x, deferCalls[x])
		}
		return true
	})
}

// collectSelect records one select statement: with a default clause it is
// non-blocking (its sends still register via the SendStmt walk); without
// one it is a wait on every received object, escaped when any case is an
// escape channel.
func (a *waitGraph) collectSelect(fn *funcNode, sel *ast.SelectStmt, inSelect map[ast.Node]bool) {
	hasDefault := false
	var objs []waitObj
	escape := false
	for _, c := range sel.Body.List {
		clause, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if clause.Comm == nil {
			hasDefault = true
			continue
		}
		var recv ast.Expr
		switch s := clause.Comm.(type) {
		case *ast.ExprStmt:
			recv = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				recv = s.Rhs[0]
			}
		}
		if u, ok := ast.Unparen(recv).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			inSelect[u] = true
			obj := a.chanObj(u.X)
			objs = append(objs, obj)
			if obj.exempt {
				escape = true
			}
		}
	}
	if hasDefault {
		return // non-blocking: a token deposit / poll, not a wait
	}
	a.waits = append(a.waits, &waitSite{
		fn: fn, node: sel, kind: waitSelect, objs: objs, escape: escape,
		desc: "select",
	})
}

// classifyCall records close(), time.Sleep, WaitGroup Wait/Add/Done, and
// opaque Wait/Join-shaped calls.
func (a *waitGraph) classifyCall(fn *funcNode, call *ast.CallExpr, deferred bool) {
	info := a.info
	if isBuiltinClose(info, call) {
		a.signals = append(a.signals, &signalSite{
			fn: fn, node: call, v: leafVar(info, call.Args[0]),
			typ: info.TypeOf(call.Args[0]), deferred: deferred, op: "close",
		})
		return
	}
	callee := calleeFunc(info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	sig := callee.Type().(*types.Signature)
	if callee.Pkg().Path() == "time" && sig.Recv() == nil && callee.Name() == "Sleep" {
		a.waits = append(a.waits, &waitSite{
			fn: fn, node: call, kind: waitSleep, desc: "time.Sleep",
		})
		return
	}
	if sig.Recv() == nil {
		return
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if syncMethodRecv(callee) == "WaitGroup" {
		var v *types.Var
		if sel != nil {
			v = leafVar(info, sel.X)
		}
		switch callee.Name() {
		case "Wait":
			a.waits = append(a.waits, &waitSite{
				fn: fn, node: call, kind: waitWG,
				objs: []waitObj{{v: v, name: exprString(sel.X)}},
				desc: exprString(sel.X) + ".Wait",
			})
		case "Add", "Done":
			a.signals = append(a.signals, &signalSite{
				fn: fn, node: call, v: v, wg: true, deferred: deferred, op: callee.Name(),
			})
		}
		return
	}
	// Wait/Join-shaped methods whose body this package cannot see: they
	// block on state the receiver owns. They participate in the wait-for
	// graph (identity-matched), but carry no naked-wait/unbounded claim —
	// their signal side is invisible by construction.
	if callee.Name() != "Wait" && callee.Name() != "Join" {
		return
	}
	if node, ok := a.graph.declNode[callee]; ok && node.body() != nil {
		return // in-package with a body: its own waits are analyzed directly
	}
	var obj waitObj
	if sel != nil {
		obj = waitObj{v: leafVar(info, sel.X), name: exprString(sel.X)}
	}
	a.waits = append(a.waits, &waitSite{
		fn: fn, node: call, kind: waitOpaque, objs: []waitObj{obj},
		desc: exprString(call.Fun),
	})
}

// computeLoopy finds functions that can be invoked repeatedly within one
// goroutine: a static or defer call site on a cycle of the caller's CFG,
// or any static call from a function already loopy. go edges do not
// count — a launch site in a loop multiplies roots (gRoot.multi), not
// iterations within one goroutine.
func (a *waitGraph) computeLoopy() {
	a.loopy = map[*funcNode]bool{}
	for _, from := range a.graph.nodes {
		g := a.cfg(from)
		for _, e := range a.graph.edges[from] {
			if e.kind != callGo && e.site != nil && g.onCycle(g.blockNodeAt(e.site.Pos())) {
				a.loopy[e.to] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, from := range a.graph.nodes {
			if !a.loopy[from] {
				continue
			}
			for _, e := range a.graph.edges[from] {
				if e.kind != callGo && !a.loopy[e.to] {
					a.loopy[e.to] = true
					changed = true
				}
			}
		}
	}
}

// --- Class 1: naked-wait ---

// signalsFor returns the signal sites that can release a wait on obj:
// identity matches first; a LOCAL variable or parameter with no identity-
// matched signals is an alias of a channel created elsewhere, so it falls
// back to channel-type matching (Group.Wait's *ch finds done()'s close).
// Struct fields and package-level channels are their own canonical
// identity — signals on them would have matched by identity, so an
// unsignalled one stays naked rather than being excused by any same-typed
// close in the package. WaitGroup waits never fall back.
func (a *waitGraph) signalsFor(w *waitSite, obj waitObj) []*signalSite {
	if obj.v != nil {
		if sigs := a.byVar[obj.v]; len(sigs) > 0 {
			return sigs
		}
		if obj.v.IsField() || (obj.v.Parent() != nil && obj.v.Parent() == a.pkg.Scope()) {
			return nil
		}
	}
	if w.kind == waitWG || obj.typ == nil {
		return nil
	}
	var out []*signalSite
	for _, s := range a.signals {
		if !s.wg && s.typ != nil && types.Identical(s.typ, obj.typ) {
			out = append(out, s)
		}
	}
	return out
}

// releasableBy reports whether some signal in sigs can fire while a
// goroutine of waitRoots is blocked: the signal's function has no known
// context (its eventual caller may be anyone), or some root executing it
// is concurrent with some waiting root. Concurrency is adversarial —
// proving a wake CAN arrive must not lean on the external-serialization
// assumption.
func releasableBy(sigs []*signalSite, a *waitGraph, waitRoots []*gRoot) bool {
	for _, s := range sigs {
		sigRoots := a.roots(s.fn)
		if len(sigRoots) == 0 {
			return true // unknown context: conservatively assume it fires
		}
		for _, sr := range sigRoots {
			for _, wr := range waitRoots {
				if sr.concurrent(wr, true) {
					return true
				}
			}
		}
	}
	return false
}

func (a *waitGraph) reportNakedWaits() {
	for _, w := range a.waits {
		if w.kind == waitSleep || w.kind == waitOpaque || w.escape {
			continue
		}
		waitRoots := a.roots(w.fn)
		if len(waitRoots) == 0 {
			continue // escaping literal: no context, deliberate silence
		}
		// A select is released by ANY of its cases; other kinds have one
		// object. Unresolvable objects (nil v and nil type) stay silent.
		naked := len(w.objs) > 0
		var dead []string
		for _, obj := range w.objs {
			if obj.exempt || releasableBy(a.signalsFor(w, obj), a, waitRoots) {
				naked = false
				break
			}
			dead = append(dead, obj.name)
		}
		if !naked {
			continue
		}
		a.pass.Reportf(w.node.Pos(),
			"naked wait: %s in %s blocks %s on %s, but no send or close of it is reachable from any concurrent goroutine root — nothing can ever deliver this wakeup (the PR-1 lost-wakeup shape; //abp:wait-ignore with a justification to waive)",
			w.desc, w.fn.name(), rootNames(waitRoots), strings.Join(dead, ", "))
	}
}

// --- Class 2: missed-signal ---

func (a *waitGraph) reportMissedSignals() {
	for _, w := range a.waits {
		if w.kind != waitSleep {
			continue
		}
		roots := a.roots(w.fn)
		var goRoot *gRoot
		for _, r := range roots {
			if !r.external {
				goRoot = r
				break
			}
		}
		if goRoot == nil {
			continue // only external callers nap here: their latency, their call
		}
		g := a.cfg(w.fn)
		if !g.onCycle(g.blockNodeAt(w.node.Pos())) && !a.loopy[w.fn] {
			continue // a one-shot delay, not a polling loop
		}
		a.pass.Reportf(w.node.Pos(),
			"missed signal: bare time.Sleep in a polling loop on %s — a wake arriving mid-nap silently waits out the remaining sleep (the PR-6 invisible-nap bug); select on a wake token instead, with a timer case if the wait is timed (the park pattern, internal/sched/lifecycle.go) (//abp:wait-ignore with a justification to waive)",
			goRoot.name())
	}
}

// --- Class 3: wait-cycle ---

// A waitEdge connects two wait SITES: from can only be released by a
// signal of obj that is itself sequenced behind to — the blocked goroutine
// at to must advance before from's wakeup can fire. The graph is over
// sites, not roots, precisely so a wait that has already completed (a
// probe earlier in the same function) never counts as still blocking a
// later signal.
type waitEdge struct {
	from, to *waitSite
	obj      string
}

func (a *waitGraph) reportWaitCycles() {
	// hard: per function, the escape-less blocking sites (selects with no
	// escape case, bare receives on non-escape channels, WaitGroup and
	// opaque waits) of functions with known goroutine context.
	hard := map[*funcNode][]*waitSite{}
	for _, w := range a.waits {
		if w.kind == waitSleep || w.escape || len(a.roots(w.fn)) == 0 {
			continue
		}
		hard[w.fn] = append(hard[w.fn], w)
	}

	// blockers returns the hard waits of s's own function that are
	// sequenced before s — the waits the signal is stuck behind. A
	// deferred signal runs at return, after every wait in the body. An
	// empty result means the signal can fire unimpeded (release edge
	// impossible); cross-function ordering is unknowable and treated the
	// same way — the direction that avoids false deadlock reports.
	blockers := func(s *signalSite) []*waitSite {
		g := a.cfg(s.fn)
		if s.deferred {
			return hard[s.fn]
		}
		var out []*waitSite
		for _, w := range hard[s.fn] {
			if g.dominates(g.blockNodeAt(w.node.Pos()), g.blockNodeAt(s.node.Pos())) {
				out = append(out, w)
			}
		}
		return out
	}

	adj := map[*waitSite][]waitEdge{}
	for _, w := range a.waits {
		if w.kind == waitSleep || w.escape || len(a.roots(w.fn)) == 0 {
			continue
		}
		for _, obj := range w.objs {
			if obj.exempt || obj.v == nil {
				continue
			}
			// Identity matches only — a type fallback would fake edges.
			// WaitGroup.Add is excluded: it raises the counter, it cannot
			// release a Wait.
			var sigs []*signalSite
			for _, s := range a.byVar[obj.v] {
				if s.op != "Add" {
					sigs = append(sigs, s)
				}
			}
			if len(sigs) == 0 {
				continue // naked-wait's domain
			}
			var edges []waitEdge
			releasable := false
			for _, s := range sigs {
				if len(a.roots(s.fn)) == 0 {
					releasable = true // unknown context: assume it fires
					break
				}
				bs := blockers(s)
				if len(bs) == 0 {
					releasable = true
					break
				}
				for _, b := range bs {
					edges = append(edges, waitEdge{from: w, to: b, obj: obj.name})
				}
			}
			if !releasable {
				adj[w] = append(adj[w], edges...)
			}
		}
	}
	if len(adj) == 0 {
		return
	}
	for _, es := range adj {
		sort.SliceStable(es, func(i, j int) bool { return es[i].to.node.Pos() < es[j].to.node.Pos() })
	}
	sites := make([]*waitSite, 0, len(adj))
	for w := range adj {
		sites = append(sites, w)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].node.Pos() < sites[j].node.Pos() })

	seen := map[string]bool{}
	var dfs func(w *waitSite, path []waitEdge, onPath map[*waitSite]int)
	dfs = func(w *waitSite, path []waitEdge, onPath map[*waitSite]int) {
		for _, e := range adj[w] {
			if i, ok := onPath[e.to]; ok {
				cycle := append(append([]waitEdge(nil), path[i:]...), e)
				a.reportCycle(cycle, seen)
				continue
			}
			onPath[e.to] = len(path) + 1
			dfs(e.to, append(path, e), onPath)
			delete(onPath, e.to)
		}
	}
	for _, w := range sites {
		dfs(w, nil, map[*waitSite]int{w: 0})
	}
}

func (a *waitGraph) reportCycle(cycle []waitEdge, seen map[string]bool) {
	keys := make([]string, 0, len(cycle))
	for _, e := range cycle {
		keys = append(keys, fmt.Sprint(e.from.node.Pos()))
	}
	sort.Strings(keys)
	key := strings.Join(keys, "|")
	if seen[key] {
		return
	}
	seen[key] = true
	var b strings.Builder
	for i, e := range cycle {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s in %s awaiting %s", e.from.desc, e.from.fn.name(), e.obj)
	}
	first := cycle[0].from
	a.pass.Reportf(first.node.Pos(),
		"wait cycle: %s -> back to the first wait — every signal that could release each wait is sequenced behind the next wait in the cycle, and no timeout/quit/abort case breaks it (//abp:wait-ignore with a justification to waive)",
		b.String())
}

// --- Class 4: unbounded-block ---

func (a *waitGraph) reportUnboundedBlocks() {
	for _, w := range a.waits {
		if w.kind != waitSelect || w.escape {
			continue
		}
		roots := a.roots(w.fn)
		var goRoot *gRoot
		for _, r := range roots {
			if !r.external {
				goRoot = r
				break
			}
		}
		if goRoot == nil {
			continue // external callers choose their own blocking discipline
		}
		a.pass.Reportf(w.node.Pos(),
			"unbounded block: select in %s on %s has no escape case — no quit/stop/abort channel, ctx.Done(), timer, or default — so a stopped pool strands this goroutine forever (//abp:wait-ignore with a justification to waive)",
			w.fn.name(), goRoot.name())
	}
}

// rootNames renders a root list for diagnostics.
func rootNames(roots []*gRoot) string {
	names := make([]string, 0, len(roots))
	for _, r := range roots {
		names = append(names, r.name())
	}
	return strings.Join(names, ", ")
}
