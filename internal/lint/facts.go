package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The fact layer: everything the analyzers share about one package, built
// exactly once per suite run (RunSuite) and handed to every analyzer
// through Pass.facts. Building it is the only place a call graph, a
// goroutine inference, a CFG or an access collection is constructed; the
// analyzers are filters and proofs over what it holds. The layer's lifetime
// is the suite run, not the process, and analyzers treat it as read-only:
// the lazily filled memos (per-function CFGs, reaching definitions, the
// happens-before closures in abprace.go) are pure functions of the facts,
// so the order analyzers run in cannot change what any of them sees
// (TestFactsOrderIndependent).
type pkgFacts struct {
	info *types.Info
	pkg  *types.Package

	// graph is the package call graph (callgraph.go); callers indexes its
	// edges by callee; owned is the //abp:owner closure along non-go edges.
	graph   *callGraph
	callers map[*funcNode][]callerEdge
	owned   map[*funcNode]bool
	// gs holds the goroutine roots and, per function, the roots that can
	// be executing it (goroutine.go).
	gs *goroutineSet
	// handshakes is the parsed and name-resolved //abp:handshake table
	// (handshake.go).
	handshakes *handshakeTable

	flows map[*funcNode]*funcFlow

	// escaped holds locals captured by a function literal or referenced
	// in a go statement: their pointees may be shared, so the fresh-
	// object rule must not apply to them.
	escaped map[*types.Var]bool
	// sync holds the per-function synchronization operations.
	sync map[*funcNode]*funcFacts
	// accesses holds every read and write of a struct field or package-
	// level variable in every function, context-less ones included, keyed
	// by types.Var.Origin (in a generic type the same field surfaces as
	// distinct instantiation variables; left split, each partition can
	// look safely ordered when the union is not) and sorted by position.
	// vars lists its keys in declaration order.
	accesses map[*types.Var][]*raceAccess
	vars     []*types.Var
	// fresh holds the plain accesses the fresh-object rule proves
	// unshared. The race analyses never see them; abporder's raw-field
	// check, whose contract is syntactic, does.
	fresh []*raceAccess
	// held holds each function's lastHolds, and recycling the pools every
	// Put of which is a last holder's — sync.Pools, and the package's own
	// free lists (listOps) — : an object Get or a pop takes from one is as
	// fresh as a new one.
	held      map[*funcNode][]lastHold
	recycling map[*types.Var]bool

	// Memos of the happens-before engine (abprace.go).
	preMemo       map[*gRoot]map[*funcNode]bool
	postMemo      map[*gRoot]map[*funcNode]bool
	joinMemo      map[*gRoot]map[*types.Var]bool
	inhMemo       map[*funcNode]map[*types.Var]uint8
	inhInProgress map[*funcNode]bool
	opsMemo       map[opsKey][]syncOp
}

// A funcFlow is one function's memoized flow analysis.
type funcFlow struct {
	cfg   *funcCFG
	reach *reachInfo // built on first use
}

type callerEdge struct {
	from *funcNode
	kind callKind
	site ast.Node
}

// A raceAccess is one read or write of a shared location.
type raceAccess struct {
	v      *types.Var // the field or package-level variable (its Origin)
	fn     *funcNode
	node   ast.Node // containing CFG block node; nil when unindexed
	pos    token.Pos
	write  bool
	atomic bool
	// recvDirect marks a one-hop selection on the enclosing method's
	// receiver (w.bot, not w.pool.done).
	recvDirect bool
	// op is the operation name at the access site ("Load", "Store",
	// "Add", "CompareAndSwap", ...) when the access goes through
	// sync/atomic or atomicx, and call is that call; "" and nil for raw
	// accesses.
	op   string
	call *ast.CallExpr
	// fnStyle marks a function-style atomic whose operand is the
	// selector itself: atomic.AddInt64(&s.f, 1), not &s.arr[i].
	fnStyle bool
	// used marks an operation whose result is consumed: anything but a
	// bare expression statement or a go/defer call.
	used bool
	// onceVar identifies the sync.Once whose Do runs the enclosing
	// literal, if any: Do bodies are mutually excluded and one-shot.
	onceVar *types.Var
	desc    string // "field bot of deque.Deque" / "package variable spinSink"
}

func (x *raceAccess) kind() string {
	k := "plain"
	if x.atomic {
		k = "atomic"
	}
	if x.write {
		return k + " write"
	}
	return k + " read"
}

// A syncOp is one synchronization operation, located by its CFG node and
// identified by the leaf variable of its operand chain (the field
// `done` in close(w.pool.done), the local `wg` in wg.Wait()).
type syncOp struct {
	v    *types.Var
	node ast.Node
	read bool // RLock/RUnlock (shared mode)
}

// deferred reports whether the operation is a deferred call: it runs at
// return, after every statement of the function body.
func (op syncOp) deferred() bool {
	_, ok := op.node.(*ast.DeferStmt)
	return ok
}

// funcFacts are the per-function synchronization operations the
// happens-before rules pair up.
type funcFacts struct {
	sends        []syncOp // channel sends and closes
	recvs        []syncOp
	waits        []syncOp // WaitGroup.Wait
	locks        []syncOp // mutex Lock/RLock, deferred ones included
	unlocks      []syncOp // mutex Unlock/RUnlock, deferred ones included
	atomicW      []syncOp
	atomicR      []syncOp
	deferredDone []*types.Var
}

// atomic returns the atomic stores, or the loads.
func (ff *funcFacts) atomic(stores bool) []syncOp {
	if stores {
		return ff.atomicW
	}
	return ff.atomicR
}

// buildFacts runs the fact pass over one type-checked package.
func buildFacts(files []*ast.File, pkg *types.Package, info *types.Info) *pkgFacts {
	g := newCallGraph(info, files)
	f := &pkgFacts{
		info:          info,
		pkg:           pkg,
		graph:         g,
		callers:       map[*funcNode][]callerEdge{},
		owned:         g.ownedNodes(),
		handshakes:    parseHandshakes(g),
		flows:         map[*funcNode]*funcFlow{},
		escaped:       map[*types.Var]bool{},
		sync:          map[*funcNode]*funcFacts{},
		accesses:      map[*types.Var][]*raceAccess{},
		preMemo:       map[*gRoot]map[*funcNode]bool{},
		postMemo:      map[*gRoot]map[*funcNode]bool{},
		joinMemo:      map[*gRoot]map[*types.Var]bool{},
		inhMemo:       map[*funcNode]map[*types.Var]uint8{},
		inhInProgress: map[*funcNode]bool{},
		opsMemo:       map[opsKey][]syncOp{},
	}
	for _, from := range g.nodes {
		for _, e := range g.edges[from] {
			f.callers[e.to] = append(f.callers[e.to], callerEdge{from: from, kind: e.kind, site: e.site})
		}
		if from.lit != nil {
			for _, v := range g.captures(from.lit) {
				f.escaped[v] = true
			}
		}
	}
	f.gs = inferGoroutines(g, f.cfg)
	f.findRecycling()
	for _, n := range g.nodes {
		f.collect(n)
	}
	for v, accs := range f.accesses {
		sort.SliceStable(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		f.vars = append(f.vars, v)
	}
	sort.Slice(f.vars, func(i, j int) bool { return f.vars[i].Pos() < f.vars[j].Pos() })
	return f
}

func (f *pkgFacts) flow(fn *funcNode) *funcFlow {
	fl, ok := f.flows[fn]
	if !ok {
		body := fn.body()
		if body == nil {
			body = &ast.BlockStmt{}
		}
		fl = &funcFlow{cfg: buildCFG(body)}
		f.flows[fn] = fl
	}
	return fl
}

// cfg returns fn's control-flow graph; a body-less function gets the
// single empty entry block.
func (f *pkgFacts) cfg(fn *funcNode) *funcCFG { return f.flow(fn).cfg }

// reach returns fn's reaching definitions, with its receiver, parameters
// and named results defined at entry.
func (f *pkgFacts) reach(fn *funcNode) *reachInfo {
	fl := f.flow(fn)
	if fl.reach == nil {
		var params []*types.Var
		if fn.decl != nil {
			params = funcParams(f.info, fn.decl.Type, fn.decl.Recv)
		} else {
			params = funcParams(f.info, fn.lit.Type, nil)
		}
		fl.reach = fl.cfg.reachingDefs(f.info, params)
	}
	return fl.reach
}

// factsOf returns fn's synchronization operations (none for a function
// without a body).
func (f *pkgFacts) factsOf(fn *funcNode) *funcFacts {
	if ff := f.sync[fn]; ff != nil {
		return ff
	}
	return &funcFacts{}
}

// --- access and sync-fact collection ---

// An exprMark is collect's first-pass classification of one expression,
// read back when the second pass reaches the selector or identifier.
type exprMark struct {
	write    bool // in write position (atomic stores included)
	atomic   bool // operand of a sync/atomic or atomicx atomic operation
	syncRecv bool // receiver of a sync.* method call: its ops became facts
	op       string
	call     *ast.CallExpr
	fnStyle  bool
	used     bool
}

// A collector is the state of one function's collection.
type collector struct {
	*pkgFacts
	fn    *funcNode
	g     *funcCFG
	facts *funcFacts
	once  *types.Var
	marks map[ast.Expr]*exprMark
	// consumed holds the &x operands of atomic calls; any other &x lets
	// the pointee escape.
	consumed map[*ast.UnaryExpr]bool
	// discarded holds the calls whose result is dropped.
	discarded map[*ast.CallExpr]bool
}

func (c *collector) mark(e ast.Expr) *exprMark {
	mk := c.marks[e]
	if mk == nil {
		mk = &exprMark{}
		c.marks[e] = mk
	}
	return mk
}

// markWrite puts e in write position. Writing an element or through a
// pointer is modeled as a write of the container field: field-granular,
// object-insensitive.
func (c *collector) markWrite(e ast.Expr) {
	e = ast.Unparen(e)
	c.mark(e).write = true
	switch x := e.(type) {
	case *ast.IndexExpr:
		c.markWrite(x.X)
	case *ast.StarExpr:
		c.markWrite(x.X)
	case *ast.SliceExpr:
		c.markWrite(x.X)
	}
}

func (c *collector) node(at ast.Node) ast.Node { return c.g.blockNodeAt(at.Pos()) }

// collect records one function's accesses and synchronization operations.
func (f *pkgFacts) collect(fn *funcNode) {
	if fn.body() == nil {
		return
	}
	c := &collector{
		pkgFacts:  f,
		fn:        fn,
		g:         f.cfg(fn),
		facts:     &funcFacts{},
		once:      f.onceVarOf(fn),
		marks:     map[ast.Expr]*exprMark{},
		consumed:  map[*ast.UnaryExpr]bool{},
		discarded: map[*ast.CallExpr]bool{},
	}
	f.sync[fn] = c.facts
	info := f.info
	addrTaken := map[*ast.UnaryExpr]ast.Expr{}
	chanOp := func(ops *[]syncOp, ch ast.Expr, at ast.Node) {
		if v := leafVar(info, ch); v != nil {
			*ops = append(*ops, syncOp{v: v, node: c.node(at)})
		}
	}

	// Pass A: classify write positions, atomic operands, and sync ops.
	fn.inspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				c.markWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.markWrite(x.X)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				c.discarded[call] = true
			}
		case *ast.DeferStmt:
			c.discarded[x.Call] = true
		case *ast.GoStmt:
			c.discarded[x.Call] = true
			// Everything the launch mentions moves to the new goroutine.
			ast.Inspect(x.Call, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
						f.escaped[v] = true
					}
				}
				return true
			})
		case *ast.SendStmt:
			chanOp(&c.facts.sends, x.Chan, x)
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(x.X)) {
				chanOp(&c.facts.recvs, x.X, x)
			}
		case *ast.UnaryExpr:
			switch x.Op {
			case token.AND:
				addrTaken[x] = x.X
			case token.ARROW:
				chanOp(&c.facts.recvs, x.X, x)
			}
		case *ast.CallExpr:
			c.classifyCall(x)
		}
		return true
	})

	// An address-taken field not consumed by an atomic call escapes as a
	// pointer: treat it as a write (the pointee may be mutated anywhere).
	for ue, target := range addrTaken {
		if !c.consumed[ue] {
			c.markWrite(target)
		}
	}

	// Pass B: collect the accesses themselves.
	selSel := map[*ast.Ident]bool{}
	fn.inspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			selSel[x.Sel] = true
			c.fieldAccess(x)
		case *ast.Ident:
			if !selSel[x] {
				c.globalAccess(x)
			}
		}
		return true
	})
}

// classifyCall sorts one call into the atomic / sync-primitive / channel
// fact buckets.
func (c *collector) classifyCall(call *ast.CallExpr) {
	info := c.info
	callee := calleeFunc(info, call)
	// atomicOperand records t as the operand of the atomic operation call
	// performs: an atomic access of the field, and a release or acquire.
	atomicOperand := func(t ast.Expr, write, fnStyle bool) {
		mk := c.mark(t)
		mk.atomic, mk.write = true, mk.write || write
		mk.op, mk.call, mk.fnStyle, mk.used = callee.Name(), call, fnStyle, !c.discarded[call]
		if v := leafVar(info, t); v != nil {
			op := syncOp{v: v, node: c.node(call)}
			if write {
				c.facts.atomicW = append(c.facts.atomicW, op)
			} else {
				c.facts.atomicR = append(c.facts.atomicR, op)
			}
		}
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	switch {
	case isAtomicFunc(callee):
		// atomic.AddUint64(&w.steals, 1): the &field operand is an
		// atomic access of the field.
		if len(call.Args) > 0 {
			if ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				x := ast.Unparen(ue.X)
				t := elemBase(x)
				c.consumed[ue] = true
				atomicOperand(t, !strings.HasPrefix(callee.Name(), "Load"), t == x)
			}
		}
	case isAtomicMethod(callee):
		// w.status.Store(v): the receiver chain is the atomic access.
		if sel != nil {
			atomicOperand(elemBase(ast.Unparen(sel.X)), callee.Name() != "Load", false)
		}
	case syncMethodRecv(callee) != "":
		if sel == nil {
			return
		}
		recv := ast.Unparen(sel.X)
		c.mark(recv).syncRecv = true
		v, n := leafVar(info, recv), c.node(call)
		if v == nil || n == nil {
			return
		}
		_, deferred := n.(*ast.DeferStmt)
		recvType := syncMethodRecv(callee)
		mutex := recvType == "Mutex" || recvType == "RWMutex"
		switch name := callee.Name(); {
		case mutex && (name == "Lock" || name == "RLock"):
			c.facts.locks = append(c.facts.locks, syncOp{v: v, node: n, read: name == "RLock"})
		case mutex && (name == "Unlock" || name == "RUnlock"):
			c.facts.unlocks = append(c.facts.unlocks, syncOp{v: v, node: n, read: name == "RUnlock"})
		case recvType == "WaitGroup" && !deferred && name == "Wait":
			c.facts.waits = append(c.facts.waits, syncOp{v: v, node: n})
		case recvType == "WaitGroup" && deferred && name == "Done":
			c.facts.deferredDone = append(c.facts.deferredDone, v)
		}
	case isBuiltinClose(info, call):
		// close(ch) publishes like a send.
		if v := leafVar(info, call.Args[0]); v != nil {
			c.facts.sends = append(c.facts.sends, syncOp{v: v, node: c.node(call)})
		}
	}
}

// isBuiltinClose reports whether call is close(ch).
func isBuiltinClose(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// elemBase unwraps an index expression: an element access like
// d.deq[i].Store(x) is, at this analysis' field-level granularity, an
// atomic access of the slice/array field itself (the marks must land on
// the base selector fieldAccess will visit, or the element op degrades
// to a plain read of the field).
func elemBase(t ast.Expr) ast.Expr {
	if ix, ok := t.(*ast.IndexExpr); ok {
		return ast.Unparen(ix.X)
	}
	return t
}

// access builds the record of one access of v through expression e.
func (c *collector) access(v *types.Var, e ast.Expr, desc string) *raceAccess {
	mk := c.marks[e]
	if mk == nil {
		mk = &exprMark{}
	}
	if mk.syncRecv {
		return nil // the sync primitive itself; its ops became facts
	}
	if !mk.atomic && !mk.write && isSyncPkgType(v.Type()) {
		return nil // e.g. passing &wg around; not a data access
	}
	return &raceAccess{
		v: v.Origin(), fn: c.fn, node: c.g.blockNodeAt(e.Pos()), pos: e.Pos(),
		write: mk.write, atomic: mk.atomic,
		op: mk.op, call: mk.call, fnStyle: mk.fnStyle, used: mk.used,
		onceVar: c.once, desc: desc,
	}
}

func (c *collector) fieldAccess(sel *ast.SelectorExpr) {
	info := c.info
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	recvType := s.Recv()
	if p, ok := recvType.(*types.Pointer); ok {
		recvType = p.Elem()
	}
	typeName := types.TypeString(recvType, func(p *types.Package) string { return p.Name() })
	acc := c.access(v, sel, fmt.Sprintf("field %s of %s", v.Name(), typeName))
	if acc == nil {
		return
	}
	if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if rv := recvVarOf(info, c.fn); rv != nil && info.Uses[base] == rv {
			acc.recvDirect = true
		}
	}
	// Fresh-object rule: accesses through a local whose every reaching
	// definition allocates a fresh object in this very function cannot be
	// shared — unless the local escaped to another goroutine. Nor can those
	// its last holder makes of a recycled object, before it puts it back.
	if base := baseIdent(sel.X); base != nil && !acc.atomic && acc.node != nil {
		if bv, ok := info.Uses[base].(*types.Var); ok && (c.lastHolder(bv, sel) || c.freshLocal(bv, acc.node)) {
			c.fresh = append(c.fresh, acc)
			return
		}
	}
	c.accesses[acc.v] = append(c.accesses[acc.v], acc)
}

// freshLocal reports whether, at node, every reaching definition of the
// unescaped local v allocates a fresh object.
func (c *collector) freshLocal(v *types.Var, node ast.Node) bool {
	if !c.isUnescapedLocal(v) {
		return false
	}
	defs := c.reach(c.fn).defsReaching(node, v)
	return len(defs) > 0 && c.allFresh(defs, v)
}

// lastHolder reports whether n, an access through v, is in one of the
// function's lastHolds on v.
func (c *collector) lastHolder(v *types.Var, n ast.Node) bool {
	for _, h := range c.held[c.fn] {
		if h.covers(v, n) {
			return true
		}
	}
	return false
}

func (c *collector) globalAccess(id *ast.Ident) {
	v, ok := c.info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Name() == "_" {
		return
	}
	if c.pkg == nil || v.Parent() != c.pkg.Scope() {
		return // locals, params, and cross-package vars are out of scope
	}
	if acc := c.access(v, id, fmt.Sprintf("package variable %s", v.Name())); acc != nil {
		c.accesses[acc.v] = append(c.accesses[acc.v], acc)
	}
}

// isUnescapedLocal reports whether v is declared inside the function's
// body and its pointee never escapes to another goroutine (not captured by
// a literal, not mentioned in a go statement).
func (c *collector) isUnescapedLocal(v *types.Var) bool {
	body := c.fn.body()
	return !c.escaped[v] && v.Pos() >= body.Pos() && v.Pos() < body.End()
}

// allFresh reports whether every reaching definition of v allocates a
// fresh object: v := &T{...}, v := T{...} (composite), or v := new(T).
func (c *collector) allFresh(defs []*definition, v *types.Var) bool {
	for _, d := range defs {
		if d.node == nil || d.weak || !c.freshDef(d.node, v) {
			return false
		}
	}
	return true
}

func (c *collector) freshDef(n ast.Node, v *types.Var) bool {
	info := c.info
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && varOfIdent(info, id) == v {
				return c.freshRHS(s.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if info.Defs[name] == v {
					return i < len(vs.Values) && c.freshRHS(vs.Values[i])
				}
			}
		}
	}
	return false
}

func (c *collector) freshRHS(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		return ok
	case *ast.CompositeLit:
		return true
	case *ast.TypeAssertExpr:
		// pool.Get().(*T) from a recycling pool: the last holder's put.
		call, ok := ast.Unparen(x.X).(*ast.CallExpr)
		if !ok || !isPoolMethod(calleeFunc(c.info, call), "Get") {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && c.recycling[leafVar(c.info, sel.X)]
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := c.info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
		// A pop off a free list every push onto which is a last holder's.
		if _, pop := c.listOps(calleeFunc(c.info, x)); pop && len(x.Args) > 0 {
			return c.recycling[addrVar(c.info, x.Args[0])]
		}
	}
	return false
}

// A lastHold is the body of an `if b.n.Add(d) == 0 { … pool.Put(b) … }`
// statement, or of a `for` loop on that condition, where n is an atomic
// count of b's holders: the consumed decrement that reaches zero picks the
// last of them, which has b to itself until its Put hands b on to the
// pool's next Get — the two edges, the count's and the pool's, that let a
// recycled object be used as a fresh one. The pool may be a sync.Pool, or
// a free list of the package's own, which its push and pop reach through
// their first argument (listOps).
type lastHold struct {
	v    *types.Var // b
	body *ast.BlockStmt
}

// covers reports whether n, a use of v, is in the region of h.
func (h lastHold) covers(v *types.Var, n ast.Node) bool {
	return h.v == v && h.body.Pos() <= n.Pos() && n.End() <= h.body.End()
}

// lastHolds returns fn's lastHold statements.
func (f *pkgFacts) lastHolds(fn *funcNode) []lastHold {
	var out []lastHold
	fn.inspectOwn(func(x ast.Node) bool {
		var test ast.Expr
		var body *ast.BlockStmt
		switch s := x.(type) {
		case *ast.IfStmt:
			test, body = s.Cond, s.Body
		case *ast.ForStmt:
			test, body = s.Cond, s.Body
		default:
			return true
		}
		cond, ok := ast.Unparen(test).(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		if zero, ok := ast.Unparen(cond.Y).(*ast.BasicLit); !ok || zero.Value != "0" {
			return true
		}
		call, ok := ast.Unparen(cond.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		add := calleeFunc(f.info, call)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isAtomicMethod(add) || add.Name() != "Add" {
			return true
		}
		if base := baseIdent(sel.X); base != nil {
			if v, ok := f.info.Uses[base].(*types.Var); ok && f.putsInto(body, v) {
				out = append(out, lastHold{v: v, body: body})
			}
		}
		return true
	})
	return out
}

// poolPut returns the pool and the object of n when n is a sync.Pool Put or
// a push onto a free list (listOps).
func (f *pkgFacts) poolPut(n ast.Node) (pool, obj *types.Var) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, nil
	}
	fn := calleeFunc(f.info, call)
	if push, _ := f.listOps(fn); push {
		return addrVar(f.info, call.Args[0]), leafVar(f.info, call.Args[len(call.Args)-1])
	}
	if len(call.Args) != 1 || !isPoolMethod(fn, "Put") {
		return nil, nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	return leafVar(f.info, sel.X), leafVar(f.info, call.Args[0])
}

// listOps reports whether fn, a function of the package, is a push onto a
// free list — it stores its last parameter in an element of its first,
// `slots[i] = r` — or a pop — it returns an element of its first,
// `return slots[i]`. The list is what the caller's first argument names.
func (f *pkgFacts) listOps(fn *types.Func) (push, pop bool) {
	if fn == nil {
		return false, false
	}
	node := f.graph.declNode[fn.Origin()]
	if node == nil || node.decl.Body == nil {
		return false, false
	}
	var params []*types.Var
	for _, field := range node.decl.Type.Params.List {
		for _, name := range field.Names {
			v, _ := f.info.Defs[name].(*types.Var)
			params = append(params, v)
		}
	}
	if len(params) < 2 || params[0] == nil {
		return false, false
	}
	elemOfFirst := func(e ast.Expr) bool {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		return ok && leafVar(f.info, ix.X) == params[0]
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if len(x.Rhs) == len(x.Lhs) && elemOfFirst(lhs) && leafVar(f.info, x.Rhs[i]) == params[len(params)-1] {
					push = true
				}
			}
		case *ast.ReturnStmt:
			if len(x.Results) == 1 && elemOfFirst(x.Results[0]) {
				pop = true
			}
		}
		return true
	})
	return push, pop
}

// addrVar is leafVar of e, or of x when e is &x.
func addrVar(info *types.Info, e ast.Expr) *types.Var {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	return leafVar(info, e)
}

// putsInto reports whether n puts v into a sync.Pool or a free list.
func (f *pkgFacts) putsInto(n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if pool, obj := f.poolPut(x); pool != nil && obj == v {
			found = true
		}
		return !found
	})
	return found
}

// findRecycling fills held, and recycling with the pools — sync.Pools and
// free lists — every Put of which is made in a lastHold on the object it
// puts.
func (f *pkgFacts) findRecycling() {
	f.held, f.recycling = map[*funcNode][]lastHold{}, map[*types.Var]bool{}
	other := map[*types.Var]bool{}
	for _, fn := range f.graph.nodes {
		held := f.lastHolds(fn)
		f.held[fn] = held
		fn.inspectOwn(func(x ast.Node) bool {
			pool, obj := f.poolPut(x)
			if a, ok := x.(*ast.AssignStmt); ok {
				// A store into a list's slots other than a push's own.
				for _, lhs := range a.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						other[leafVar(f.info, ix.X)] = true
					}
				}
			}
			if pool == nil {
				return true
			}
			in := false
			for _, h := range held {
				in = in || h.covers(obj, x)
			}
			if in {
				f.recycling[pool] = true
			} else {
				other[pool] = true
			}
			return true
		})
	}
	for p := range other {
		delete(f.recycling, p)
	}
}

// onceVarOf resolves the sync.Once whose Do invokes fn, when fn is a
// literal passed directly to (*sync.Once).Do.
func (f *pkgFacts) onceVarOf(fn *funcNode) *types.Var {
	var result *types.Var
	if fn.lit != nil {
		for _, e := range f.callers[fn] {
			call, ok := e.site.(*ast.CallExpr)
			if !ok || e.kind != callStatic {
				continue
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !isOnceDo(calleeFunc(f.info, call)) {
				continue
			}
			if len(call.Args) == 1 && ast.Unparen(call.Args[0]) == fn.lit {
				result = leafVar(f.info, sel.X)
			}
		}
	}
	return result
}

// --- small helpers ---

// leafVar resolves the identity variable of an operand chain: the field
// for w.pool.done, the local or package variable for bare identifiers.
// Index and deref steps identify the element by its container.
func leafVar(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			v, _ := s.Obj().(*types.Var)
			return v
		}
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	case *ast.StarExpr:
		return leafVar(info, x.X)
	case *ast.IndexExpr:
		return leafVar(info, x.X)
	}
	return nil
}

// baseIdent unwraps a selector base chain to its root identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// recvVarOf returns the receiver variable of a method declaration node.
func recvVarOf(info *types.Info, fn *funcNode) *types.Var {
	if fn.decl == nil || fn.decl.Recv == nil || len(fn.decl.Recv.List) == 0 {
		return nil
	}
	names := fn.decl.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	v, _ := info.Defs[names[0]].(*types.Var)
	return v
}

// syncMethodRecv returns the receiver type name when fn is a method of a
// package sync type (Mutex, RWMutex, WaitGroup, Once, Cond, Map, Pool),
// or "".
func syncMethodRecv(fn *types.Func) string {
	if named := recvNamed(fn); named != nil && named.Obj().Pkg().Path() == "sync" {
		return named.Obj().Name()
	}
	return ""
}

// isPoolMethod reports whether fn is the method name of sync.Pool.
func isPoolMethod(fn *types.Func, name string) bool {
	return syncMethodRecv(fn) == "Pool" && fn.Name() == name
}

// isSyncPkgType reports whether t is (a pointer to) a named type of
// package sync: those values are synchronization primitives, not data.
func isSyncPkgType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// isChanType reports whether t's core type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
