package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// abprace is a whole-package static happens-before race detector. It is
// the layer the single-contract analyzers do not occupy: they each check one
// function-local contract, while abprace reasons about WHICH goroutine
// reaches an access and WHAT orders it against conflicting accesses
// elsewhere. Everything it reasons over is a fact the suite run built once
// (facts.go):
//
//  1. goroutine contexts (goroutine.go): every function/closure is tagged
//     with the goroutine roots that can be executing it.
//  2. the access set: every read/write of a struct field or package-level
//     variable, classified plain vs sync/atomic (the set handshake and
//     abporder filter too).
//  3. happens-before facts, per function along its CFG: channel
//     sends/closes vs receives, WaitGroup deferred-Done -> Wait joins,
//     mutex locksets (dominating Lock not killed by a dominated Unlock,
//     inherited across static call edges), atomic release/acquire pairs,
//     go-statement fork edges (composed along chains of go roots), and
//     //abp:handshake declarations as trusted edges (that protocol is
//     audited by the handshake analyzer, not re-derived here).
//
// This file holds the engine that turns them into verdicts — one
// conflicting-pair iterator and one ordering predicate, which abporder runs
// again under adversarial rules — and abprace's own part: for each shared
// location, the first pair of accesses on concurrent roots where at least
// one side writes, not both are atomic, and no fact orders them, printed
// with both goroutine provenance chains and suppressible by a justified
// //abp:race-ignore comment.
//
// Deliberate approximations (DESIGN.md §8 discusses each): locations are
// identified by their field/variable object, not by object instance; the
// external root is assumed to serialize its calls per the package's
// documented contracts; receiver-direct accesses in //abp:owner functions
// are trusted to the audited single-owner discipline; escaping function
// literals with no invocation edge get no context and are not analyzed;
// fork edges order an access against launches of the same activation.

// AbpRace reports pairs of conflicting shared-memory accesses reachable
// from two concurrent goroutine contexts with no happens-before edge.
var AbpRace = &Analyzer{
	Name: "abprace",
	Doc:  "reports unsynchronized conflicting accesses to shared fields or package variables reachable from two concurrent goroutine contexts",
	Run:  runAbpRace,
}

func runAbpRace(pass *Pass) error {
	f := pass.facts
	if len(f.gs.roots) < 2 {
		return nil // no go statements: one context, nothing is concurrent
	}
	// One finding per location (the first unordered conflicting pair)
	// keeps output stable.
	for _, v := range f.vars {
		if x, y, rx, ry := f.unorderedPair(f.accesses[v], false); x != nil {
			reportRace(pass, x, y, rx, ry)
		}
	}
	return nil
}

// --- conflict detection ---

// unorderedPair returns the first pair of accs (one location's accesses, in
// position order) that conflicts — at least one side writes — on concurrent
// goroutine roots with no fact ordering it, or a nil x when every such pair
// is ordered. It is the one pair iterator: abprace reports what it returns
// under the standard rules with atomic-atomic pairs exempt, and abporder's
// plain-suffices proof demands a nil answer under the adversarial rules
// (see suppressed) with no exemption — the atomicity of the operations is
// what is on trial.
func (f *pkgFacts) unorderedPair(accs []*raceAccess, adversarial bool) (x, y *raceAccess, rx, ry *gRoot) {
	for i, x := range accs {
		for _, y := range accs[i:] {
			if !x.write && !y.write || !adversarial && x.atomic && y.atomic {
				continue
			}
			for _, rx := range f.gs.ctx[x.fn] {
				for _, ry := range f.gs.ctx[y.fn] {
					if rx.concurrent(ry, adversarial) && !f.suppressed(x, y, rx, ry, adversarial) {
						return x, y, rx, ry
					}
				}
			}
		}
	}
	return nil, nil, nil, nil
}

// suppressed reports whether some fact orders or excludes the pair. The
// adversarial rules are the ones a PROOF that an atomic is unnecessary
// must survive: the external root races itself (gRoot.concurrent), the
// trusted-handshake waiver is withheld (handshake accesses are the
// opposite of plain-safe), owner discipline is trusted only on roots with
// a single instance, and atomic release/acquire edges earn no credit
// (using an atomic to prove itself unnecessary is circular).
func (f *pkgFacts) suppressed(x, y *raceAccess, rx, ry *gRoot, adversarial bool) bool {
	// Trusted edge: both sides declared //abp:handshake — the Dekker
	// protocol between them is audited by the handshake analyzer.
	if !adversarial && f.handshakes.carriers[x.fn] && f.handshakes.carriers[y.fn] {
		return true
	}
	// Owner discipline: receiver-direct accesses inside the audited
	// //abp:owner closure operate on per-instance state. It serializes
	// accesses only while there is a SINGLE owner instance: a go root that
	// may run as several concurrent copies (launched in a loop) makes
	// "owned" mean "owned by one of N workers", which orders nothing on
	// receiver-shared state, so under the adversarial rules a multi go-root
	// forfeits the suppression. The external root keeps it: the owner
	// contract is exactly the documented serialization external callers
	// sign up for, and the owneronly analyzer audits it.
	ownerTrust := func(r *gRoot) bool { return !adversarial || r.external || !r.multi }
	if x.recvDirect && y.recvDirect && f.owned[x.fn] && f.owned[y.fn] && ownerTrust(rx) && ownerTrust(ry) {
		return true
	}
	// sync.Once: both accesses inside Do bodies of the same Once are
	// mutually excluded and execute at most once.
	if x.onceVar != nil && x.onceVar == y.onceVar {
		return true
	}
	if f.lockExcluded(x, y) {
		return true
	}
	return f.ordered(x, rx, y, ry, adversarial) || f.ordered(y, ry, x, rx, adversarial)
}

// ordered reports whether an extracted happens-before fact places x (on
// root rx) before y (on root ry).
func (f *pkgFacts) ordered(x *raceAccess, rx *gRoot, y *raceAccess, ry *gRoot, adversarial bool) bool {
	// Fork: x is sequenced before every launch of ry's goroutine.
	if !ry.external && rx != ry && f.beforeLaunch(x, ry) {
		return true
	}
	// Join: rx's goroutine defers a WaitGroup Done that y's function
	// Waits for before the access.
	if !rx.external && rx != ry && f.afterJoin(y, rx) {
		return true
	}
	// Channel: x precedes a send/close whose receive precedes y.
	if f.pairedVia(x, y, f.factsOf(x.fn).sends, f.factsOf(y.fn).recvs) {
		return true
	}
	// Atomic release/acquire: x precedes an atomic store whose load
	// precedes y — the function's own, or one a static callee makes while
	// the call runs (branch polarity is not verified: over-approximation).
	return !adversarial && f.pairedVia(x, y, f.atomicOps(x.fn, true), f.atomicOps(y.fn, false))
}

// atomicOps returns fn's atomic stores (or loads), with those its static
// callees make, transitively, placed at the call site.
func (f *pkgFacts) atomicOps(fn *funcNode, write bool) []syncOp {
	key := opsKey{fn, write}
	if ops, ok := f.opsMemo[key]; ok {
		return ops
	}
	ops := f.factsOf(fn).atomic(write)
	ops = ops[:len(ops):len(ops)]
	cfg := f.cfg(fn)
	for _, e := range f.graph.edges[fn] {
		if e.kind != callStatic {
			continue
		}
		at := cfg.blockNodeAt(e.site.Pos())
		for v := range f.atomicVars(e.to, write, map[*funcNode]bool{}) {
			ops = append(ops, syncOp{v: v, node: at})
		}
	}
	f.opsMemo[key] = ops
	return ops
}

type opsKey struct {
	fn    *funcNode
	write bool
}

// atomicVars returns the variables fn and its static callees store (or
// load) atomically. visited breaks recursion.
func (f *pkgFacts) atomicVars(fn *funcNode, write bool, visited map[*funcNode]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if visited[fn] {
		return out
	}
	visited[fn] = true
	for _, op := range f.factsOf(fn).atomic(write) {
		out[op.v] = true
	}
	for _, e := range f.graph.edges[fn] {
		if e.kind == callStatic {
			for v := range f.atomicVars(e.to, write, visited) {
				out[v] = true
			}
		}
	}
	return out
}

// pairedVia implements the shared release/acquire shape: some release op
// (send, close, atomic store) of variable v in x's function cannot run
// before x, and a matching acquire op (receive, atomic load) of v
// dominates y.
func (f *pkgFacts) pairedVia(x, y *raceAccess, releases, acquires []syncOp) bool {
	if x.node == nil || y.node == nil {
		return false
	}
	cgx, cgy := f.cfg(x.fn), f.cfg(y.fn)
	for _, rel := range releases {
		if rel.node == nil || cgx.canReach(rel.node, x.node) {
			continue // some execution runs x after the release
		}
		for _, acq := range acquires {
			if acq.v != rel.v || acq.node == nil {
				continue
			}
			if acq.node == y.node || cgy.dominates(acq.node, y.node) {
				return true
			}
		}
	}
	return false
}

// beforeLaunch reports whether x is sequenced before every go statement
// launching r: directly or through composed fork edges (launchedAfter), or
// transitively (x's function only ever called before the launch, the
// pre(r) closure).
func (f *pkgFacts) beforeLaunch(x *raceAccess, r *gRoot) bool {
	return f.launchedAfter(x, r, map[*gRoot]bool{}) || f.preSet(r)[x.fn]
}

// launchedAfter reports whether every launch site of r runs after x. A
// site in x's own function must be unable to flow back to x. A site in any
// other function is still after x when that function runs only on go roots
// that are themselves launched after x: fork edges compose (write → go
// manager → go worker orders the write before the worker). An external
// context or an unresolved site fails the rule. visited breaks cycles of
// mutually launching roots: a cycle's instances all descend from the
// launches outside it, which the walk checks.
func (f *pkgFacts) launchedAfter(x *raceAccess, r *gRoot, visited map[*gRoot]bool) bool {
	if visited[r] {
		return true
	}
	visited[r] = true
	for _, l := range r.sites {
		switch {
		case l.stmt == nil:
			return false
		case l.fn == x.fn:
			if x.node == nil || f.cfg(x.fn).canReach(l.stmt, x.node) {
				return false
			}
		default:
			via := f.gs.ctx[l.fn]
			if len(via) == 0 {
				return false
			}
			for _, vr := range via {
				if vr.external || !f.launchedAfter(x, vr, visited) {
					return false
				}
			}
		}
	}
	return len(r.sites) > 0
}

// callerClosure computes the least set of functions whose every incoming
// call edge either comes from a member or is admitted outright.
func (f *pkgFacts) callerClosure(admit func(callerEdge) bool) map[*funcNode]bool {
	set := map[*funcNode]bool{}
	for changed := true; changed; {
		changed = false
	nodes:
		for _, n := range f.graph.nodes {
			if set[n] || len(f.callers[n]) == 0 {
				continue
			}
			for _, e := range f.callers[n] {
				if !set[e.from] && !admit(e) {
					continue nodes
				}
			}
			set[n] = true
			changed = true
		}
	}
	return set
}

// preSet computes the functions whose every activation completes before
// any launch of r: F qualifies when every incoming call edge either comes
// from a qualifying caller or is a static call in the launching function
// that no launch site can flow to.
func (f *pkgFacts) preSet(r *gRoot) map[*funcNode]bool {
	pre, ok := f.preMemo[r]
	if !ok {
		pre = f.callerClosure(func(e callerEdge) bool {
			return e.kind == callStatic && f.siteBeforeLaunches(r, e)
		})
		f.preMemo[r] = pre
	}
	return pre
}

// siteBeforeLaunches reports whether every go statement launching r sits
// in the calling function and cannot flow to the call site.
func (f *pkgFacts) siteBeforeLaunches(r *gRoot, e callerEdge) bool {
	cfg := f.cfg(e.from)
	siteNode := cfg.blockNodeAt(e.site.Pos())
	if siteNode == nil {
		return false
	}
	for _, l := range r.sites {
		if l.fn != e.from || l.stmt == nil || cfg.canReach(l.stmt, siteNode) {
			return false
		}
	}
	return len(r.sites) > 0
}

// afterJoin reports whether y is sequenced after a Wait on a WaitGroup
// that every instance of root r signals via a deferred Done.
func (f *pkgFacts) afterJoin(y *raceAccess, r *gRoot) bool {
	jv := f.joinVars(r)
	if len(jv) == 0 {
		return false
	}
	if y.node != nil {
		cfg := f.cfg(y.fn)
		for _, w := range f.factsOf(y.fn).waits {
			if jv[w.v] && w.node != nil && cfg.dominates(w.node, y.node) {
				return true
			}
		}
	}
	return f.postSet(r)[y.fn]
}

// joinVars resolves the WaitGroups root r's entry function Done()s via
// defer. A Done on a parameter is threaded back through the launch-site
// arguments (go r.worker(i, &wg): the deferred wg.Done() joins the
// caller's wg).
func (f *pkgFacts) joinVars(r *gRoot) map[*types.Var]bool {
	if s, ok := f.joinMemo[r]; ok {
		return s
	}
	out := map[*types.Var]bool{}
	if r.fn != nil {
		info := f.info
		for _, dv := range f.factsOf(r.fn).deferredDone {
			if k := paramIndex(info, r.fn, dv); k >= 0 {
				var resolved *types.Var
				ok := len(r.sites) > 0
				for _, l := range r.sites {
					if l.stmt == nil || k >= len(l.stmt.Call.Args) {
						ok = false
						break
					}
					arg := ast.Unparen(l.stmt.Call.Args[k])
					if ue, isAddr := arg.(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
						arg = ast.Unparen(ue.X)
					}
					v := leafVar(info, arg)
					if v == nil || (resolved != nil && v != resolved) {
						ok = false
						break
					}
					resolved = v
				}
				if ok && resolved != nil {
					out[resolved] = true
				}
			} else {
				out[dv] = true
			}
		}
	}
	f.joinMemo[r] = out
	return out
}

// postSet computes the functions whose every activation starts after r is
// joined: every incoming edge is a static call dominated by a Wait on one
// of r's join variables, or comes from a qualifying caller.
func (f *pkgFacts) postSet(r *gRoot) map[*funcNode]bool {
	post, ok := f.postMemo[r]
	if !ok {
		if jv := f.joinVars(r); len(jv) > 0 {
			post = f.callerClosure(func(e callerEdge) bool {
				return e.kind == callStatic && f.waitDominatesSite(jv, e)
			})
		}
		f.postMemo[r] = post
	}
	return post
}

func (f *pkgFacts) waitDominatesSite(jv map[*types.Var]bool, e callerEdge) bool {
	cfg := f.cfg(e.from)
	siteNode := cfg.blockNodeAt(e.site.Pos())
	if siteNode == nil {
		return false
	}
	for _, w := range f.factsOf(e.from).waits {
		if jv[w.v] && w.node != nil && cfg.dominates(w.node, siteNode) {
			return true
		}
	}
	return false
}

// --- locksets ---

// lockExcluded reports whether x and y hold a common mutex with at least
// one side in exclusive mode.
func (f *pkgFacts) lockExcluded(x, y *raceAccess) bool {
	hx := f.locksAtNode(x.fn, x.node)
	if len(hx) == 0 {
		return false
	}
	hy := f.locksAtNode(y.fn, y.node)
	for m, bx := range hx {
		by := hy[m]
		if by == 0 {
			continue
		}
		if bx&1 != 0 || by&1 != 0 { // not both merely read-locked
			return true
		}
	}
	return false
}

// locksAtNode computes the locks held at a CFG node: the function's
// inherited set plus every Lock that dominates the node and is not killed
// by an Unlock on the path (a dominated Unlock that itself dominates the
// node). Bits: 1 = exclusive, 2 = shared (RLock). A deferred operation
// runs at return, so a deferred Unlock never kills and a deferred Lock never
// holds; conditional Unlocks off the dominating path are missed — an
// accepted over-approximation noted in DESIGN.md.
func (f *pkgFacts) locksAtNode(fn *funcNode, node ast.Node) map[*types.Var]uint8 {
	held := map[*types.Var]uint8{}
	for k, v := range f.inheritedLocks(fn) {
		held[k] = v
	}
	if node == nil {
		return held
	}
	ops, cfg := f.factsOf(fn), f.cfg(fn)
	for _, l := range ops.locks {
		if l.node == nil || l.deferred() || !cfg.dominates(l.node, node) {
			continue
		}
		killed := false
		for _, u := range ops.unlocks {
			if u.v != l.v || u.read != l.read || u.node == nil || u.deferred() {
				continue
			}
			if cfg.dominates(l.node, u.node) && cfg.dominates(u.node, node) {
				killed = true
				break
			}
		}
		if !killed {
			if l.read {
				held[l.v] |= 2
			} else {
				held[l.v] |= 1
			}
		}
	}
	return held
}

// inheritedLocks is the must-intersection of the locks held at every
// static call site of fn. Any go/defer caller, absence of callers, or a
// recursion cycle yields the empty set (the conservative answer).
func (f *pkgFacts) inheritedLocks(fn *funcNode) map[*types.Var]uint8 {
	if s, ok := f.inhMemo[fn]; ok {
		return s
	}
	if f.inhInProgress[fn] {
		return nil
	}
	f.inhInProgress[fn] = true
	defer delete(f.inhInProgress, fn)

	var result map[*types.Var]uint8
	edges := f.callers[fn]
	if len(edges) > 0 {
		allStatic := true
		for _, e := range edges {
			if e.kind != callStatic {
				allStatic = false
				break
			}
		}
		if allStatic {
			for i, e := range edges {
				siteNode := f.cfg(e.from).blockNodeAt(e.site.Pos())
				s := f.locksAtNode(e.from, siteNode)
				if i == 0 {
					result = s
					continue
				}
				for k, v := range result {
					if nv := v & s[k]; nv == 0 {
						delete(result, k)
					} else {
						result[k] = nv
					}
				}
			}
		}
	}
	f.inhMemo[fn] = result
	return result
}

// --- reporting ---

func reportRace(pass *Pass, x, y *raceAccess, rx, ry *gRoot) {
	ctx := func(r *gRoot, fn *funcNode) string {
		if r.external {
			return fmt.Sprintf("%s: %s", r.name(), r.chain(fn))
		}
		return fmt.Sprintf("%s launched in %s: %s", r.name(), r.launchedIn(), r.chain(fn))
	}
	cy := ctx(ry, y.fn)
	if rx == ry {
		cy = "another instance, " + cy
	}
	pass.Reportf(x.pos,
		"possible data race on %s: %s in %s [%s] conflicts with %s in %s [%s]; no happens-before edge orders the accesses (suppress with //abp:race-ignore <justification>)",
		x.desc, x.kind(), x.fn.name(), ctx(rx, x.fn), y.kind(), y.fn.name(), cy)
}

// paramIndex returns dv's positional index among fn's declared
// parameters, or -1.
func paramIndex(info *types.Info, fn *funcNode, dv *types.Var) int {
	var ft *ast.FuncType
	if fn.decl != nil {
		ft = fn.decl.Type
	} else {
		ft = fn.lit.Type
	}
	if ft.Params == nil {
		return -1
	}
	i := 0
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			if info.Defs[name] == dv {
				return i
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
	return -1
}
