package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// abprace is a whole-package static happens-before race detector. It is
// the layer the single-contract analyzers do not occupy: they each check one
// function-local contract, while abprace reasons about WHICH goroutine
// reaches an access and WHAT orders it against conflicting accesses
// elsewhere. The pipeline:
//
//  1. goroutine-context inference (goroutine.go): every function/closure
//     is tagged with the goroutine roots that can be executing it.
//  2. field-sensitive shared-access collection: every read/write of a
//     struct field or package-level variable in a context-tagged
//     function, classified plain vs sync/atomic (the same operand
//     machinery atomicmix uses).
//  3. happens-before fact extraction, per function along its CFG:
//     channel sends/closes vs receives, WaitGroup deferred-Done -> Wait
//     joins, mutex locksets (dominating Lock not killed by a dominated
//     Unlock, inherited across static call edges), atomic release/
//     acquire pairs, go-statement fork edges, and //abp:handshake
//     declarations as trusted edges (that protocol is audited by the
//     handshake analyzer, not re-derived here).
//  4. conflict reporting: for each shared location, the first pair of
//     accesses on concurrent roots where at least one side writes, not
//     both are atomic, and no extracted fact orders them — printed with
//     both goroutine provenance chains and suppressible by a justified
//     //abp:race-ignore comment.
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

// A raceAccess is one read or write of a shared location.
type raceAccess struct {
	v      *types.Var // the field or package-level variable
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
	// sync/atomic or atomicx; "" for plain accesses.
	op string
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

// funcFacts are the per-function happens-before facts.
type funcFacts struct {
	trusted      bool // declared //abp:handshake: ordering audited elsewhere
	sends        []syncOp
	recvs        []syncOp
	waits        []syncOp
	locks        []syncOp
	unlocks      []syncOp
	atomicW      []syncOp
	atomicR      []syncOp
	deferredDone []*types.Var
}

type callerEdge struct {
	from *funcNode
	kind callKind
	site ast.Node
}

type raceAnalysis struct {
	pass  *Pass
	graph *callGraph
	gs    *goroutineSet
	owned map[*funcNode]bool

	cfgs    map[*funcNode]*funcCFG
	reaches map[*funcNode]*reachInfo
	facts   map[*funcNode]*funcFacts
	callers map[*funcNode][]callerEdge

	// escaped holds locals captured by a function literal or referenced
	// in a go statement: their pointees may be shared, so the fresh-
	// object rule must not apply to them.
	escaped map[*types.Var]bool

	accesses map[*types.Var][]*raceAccess

	preMemo  map[*gRoot]map[*funcNode]bool
	postMemo map[*gRoot]map[*funcNode]bool
	joinMemo map[*gRoot]map[*types.Var]bool
	onceMemo map[*funcNode]*types.Var

	inhMemo       map[*funcNode]map[*types.Var]uint8
	inhInProgress map[*funcNode]bool
}

// newRaceAnalysis builds the whole-package analysis state — call graph,
// goroutine contexts, owner set, caller index, escape set — that abprace
// and abporder both run their collection and happens-before machinery on.
func newRaceAnalysis(pass *Pass) *raceAnalysis {
	g := newCallGraph(pass.TypesInfo, pass.Files)
	a := &raceAnalysis{
		pass:          pass,
		graph:         g,
		cfgs:          map[*funcNode]*funcCFG{},
		reaches:       map[*funcNode]*reachInfo{},
		facts:         map[*funcNode]*funcFacts{},
		callers:       map[*funcNode][]callerEdge{},
		escaped:       map[*types.Var]bool{},
		accesses:      map[*types.Var][]*raceAccess{},
		preMemo:       map[*gRoot]map[*funcNode]bool{},
		postMemo:      map[*gRoot]map[*funcNode]bool{},
		joinMemo:      map[*gRoot]map[*types.Var]bool{},
		onceMemo:      map[*funcNode]*types.Var{},
		inhMemo:       map[*funcNode]map[*types.Var]uint8{},
		inhInProgress: map[*funcNode]bool{},
	}
	a.gs = inferGoroutines(g, a.cfg)
	a.owned = g.ownedNodes()
	for _, from := range g.nodes {
		for _, e := range g.edges[from] {
			a.callers[e.to] = append(a.callers[e.to], callerEdge{from: from, kind: e.kind, site: e.site})
		}
	}
	a.collectEscapes()
	return a
}

func runAbpRace(pass *Pass) error {
	a := newRaceAnalysis(pass)
	if len(a.gs.roots) < 2 {
		return nil // no go statements: one context, nothing is concurrent
	}
	for _, n := range a.gs.sharedNodes(a.graph) {
		a.collect(n)
	}
	a.report()
	return nil
}

func (a *raceAnalysis) cfg(fn *funcNode) *funcCFG {
	if g, ok := a.cfgs[fn]; ok {
		return g
	}
	body := fn.body()
	if body == nil {
		body = &ast.BlockStmt{}
	}
	g := buildCFG(body)
	a.cfgs[fn] = g
	return g
}

func (a *raceAnalysis) reach(fn *funcNode) *reachInfo {
	if r, ok := a.reaches[fn]; ok {
		return r
	}
	var params []*types.Var
	if fn.decl != nil {
		params = funcParams(a.pass.TypesInfo, fn.decl.Type, fn.decl.Recv)
	} else {
		params = funcParams(a.pass.TypesInfo, fn.lit.Type, nil)
	}
	r := a.cfg(fn).reachingDefs(a.pass.TypesInfo, params)
	a.reaches[fn] = r
	return r
}

func (a *raceAnalysis) factsOf(fn *funcNode) *funcFacts {
	if f, ok := a.facts[fn]; ok {
		return f
	}
	f := &funcFacts{trusted: fn.decl != nil && hasDirective(fn.decl.Doc, "//abp:handshake")}
	a.facts[fn] = f
	return f
}

// collectEscapes records every local whose pointee may be shared with
// another goroutine: captured by any function literal, or mentioned in a
// go statement's call (receiver or argument).
func (a *raceAnalysis) collectEscapes() {
	for _, n := range a.graph.nodes {
		if n.lit != nil {
			for _, v := range a.graph.captures(n.lit) {
				a.escaped[v] = true
			}
		}
	}
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			ast.Inspect(g.Call, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if v, ok := a.pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() {
						a.escaped[v] = true
					}
				}
				return true
			})
			return true
		})
	}
}

// --- access and fact collection ---

// accessMarks carries collect's Pass-A classification of expressions to
// Pass B: which expressions sit in write position, which are operands of
// atomic (or atomicx) operations and under what operation name, and which
// are sync primitives.
type accessMarks struct {
	writes       map[ast.Expr]bool   // exprs in write position
	atomicTarget map[ast.Expr]bool   // exprs accessed through sync/atomic or atomicx
	atomicWrite  map[ast.Expr]bool   // ... and the op stores
	atomicOp     map[ast.Expr]string // ... and the op's name
	syncRecv     map[ast.Expr]bool   // receivers of sync.* method calls
}

func (a *raceAnalysis) collect(fn *funcNode) {
	body := fn.body()
	if body == nil {
		return
	}
	info := a.pass.TypesInfo
	cfg := a.cfg(fn)
	facts := a.factsOf(fn)

	m := &accessMarks{
		writes:       map[ast.Expr]bool{},
		atomicTarget: map[ast.Expr]bool{},
		atomicWrite:  map[ast.Expr]bool{},
		atomicOp:     map[ast.Expr]string{},
		syncRecv:     map[ast.Expr]bool{},
	}
	addrTaken := map[*ast.UnaryExpr]ast.Expr{}
	consumed := map[*ast.UnaryExpr]bool{} // &x operands consumed by atomic calls

	var markWrite func(e ast.Expr)
	markWrite = func(e ast.Expr) {
		e = ast.Unparen(e)
		m.writes[e] = true
		// Writing an element or through a pointer is modeled as a write
		// of the container field: field-granular, object-insensitive.
		switch x := e.(type) {
		case *ast.IndexExpr:
			markWrite(x.X)
		case *ast.StarExpr:
			markWrite(x.X)
		case *ast.SliceExpr:
			markWrite(x.X)
		}
	}
	node := func(at ast.Node) ast.Node { return cfg.blockNodeAt(at.Pos()) }
	isDeferred := func(n ast.Node) bool {
		_, ok := n.(*ast.DeferStmt)
		return ok
	}

	// Pass A: classify write positions, atomic operands, and sync ops.
	fn.inspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.SendStmt:
			if v := leafVar(info, x.Chan); v != nil {
				facts.sends = append(facts.sends, syncOp{v: v, node: node(x)})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					if v := leafVar(info, x.X); v != nil {
						facts.recvs = append(facts.recvs, syncOp{v: v, node: node(x)})
					}
				}
			}
		case *ast.UnaryExpr:
			switch x.Op {
			case token.AND:
				addrTaken[x] = x.X
			case token.ARROW:
				if v := leafVar(info, x.X); v != nil {
					facts.recvs = append(facts.recvs, syncOp{v: v, node: node(x)})
				}
			}
		case *ast.CallExpr:
			a.classifyCall(fn, x, facts, m, consumed, node, isDeferred)
		}
		return true
	})

	// An address-taken field not consumed by an atomic call escapes as a
	// pointer: treat it as a write (the pointee may be mutated anywhere).
	for ue, target := range addrTaken {
		if !consumed[ue] {
			markWrite(target)
		}
	}

	// Pass B: collect the accesses themselves.
	selSel := map[*ast.Ident]bool{}
	fn.inspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			selSel[x.Sel] = true
			a.fieldAccess(fn, cfg, x, m)
		case *ast.Ident:
			if !selSel[x] {
				a.globalAccess(fn, cfg, x, m)
			}
		}
		return true
	})
}

// classifyCall sorts one call into the atomic / sync-primitive / channel
// fact buckets.
func (a *raceAnalysis) classifyCall(fn *funcNode, call *ast.CallExpr, facts *funcFacts,
	m *accessMarks, consumed map[*ast.UnaryExpr]bool, node func(ast.Node) ast.Node, isDeferred func(ast.Node) bool) {

	info := a.pass.TypesInfo
	callee := calleeFunc(info, call)
	switch {
	case isAtomicFunc(callee):
		// atomic.AddUint64(&w.steals, 1): the &field operand is an
		// atomic access of the field (atomicmix's operand rule).
		if len(call.Args) > 0 {
			if ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				t := elemBase(ast.Unparen(ue.X))
				w := !strings.HasPrefix(callee.Name(), "Load")
				m.atomicTarget[t] = true
				m.atomicWrite[t] = w
				m.atomicOp[t] = callee.Name()
				consumed[ue] = true
				if v := leafVar(info, t); v != nil {
					op := syncOp{v: v, node: node(call)}
					if w {
						facts.atomicW = append(facts.atomicW, op)
					} else {
						facts.atomicR = append(facts.atomicR, op)
					}
				}
			}
		}
	case isAtomicMethod(callee):
		// w.parked.Store(true): the receiver chain is the atomic access.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			t := elemBase(ast.Unparen(sel.X))
			w := callee.Name() != "Load"
			m.atomicTarget[t] = true
			m.atomicWrite[t] = w
			m.atomicOp[t] = callee.Name()
			if v := leafVar(info, t); v != nil {
				op := syncOp{v: v, node: node(call)}
				if w {
					facts.atomicW = append(facts.atomicW, op)
				} else {
					facts.atomicR = append(facts.atomicR, op)
				}
			}
		}
	case isAtomicxPlainMethod(callee):
		// h.handoff.Set(t): a declared-plain access — the receiver chain
		// is a plain write (Set) or plain read (Get), checked by the pair
		// machinery exactly as a raw field access would be.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			t := elemBase(ast.Unparen(sel.X))
			if callee.Name() == "Set" {
				m.writes[t] = true
			}
			m.atomicOp[t] = callee.Name()
		}
	case syncMethodRecv(callee) != "":
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		recv := ast.Unparen(sel.X)
		m.syncRecv[recv] = true
		v := leafVar(info, recv)
		if v == nil {
			return
		}
		n := node(call)
		recvType := syncMethodRecv(callee)
		switch callee.Name() {
		case "Lock", "RLock":
			if (recvType == "Mutex" || recvType == "RWMutex") && n != nil && !isDeferred(n) {
				facts.locks = append(facts.locks, syncOp{v: v, node: n, read: callee.Name() == "RLock"})
			}
		case "Unlock", "RUnlock":
			// A deferred unlock releases at return: it never kills the
			// lockset of statements inside the function.
			if (recvType == "Mutex" || recvType == "RWMutex") && n != nil && !isDeferred(n) {
				facts.unlocks = append(facts.unlocks, syncOp{v: v, node: n, read: callee.Name() == "RUnlock"})
			}
		case "Wait":
			if recvType == "WaitGroup" && n != nil && !isDeferred(n) {
				facts.waits = append(facts.waits, syncOp{v: v, node: n})
			}
		case "Done":
			if recvType == "WaitGroup" && n != nil && isDeferred(n) {
				facts.deferredDone = append(facts.deferredDone, v)
			}
		}
	default:
		// close(ch) publishes like a send.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				if v := leafVar(info, call.Args[0]); v != nil {
					facts.sends = append(facts.sends, syncOp{v: v, node: node(call)})
				}
			}
		}
	}
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

func (a *raceAnalysis) fieldAccess(fn *funcNode, cfg *funcCFG, sel *ast.SelectorExpr, m *accessMarks) {
	info := a.pass.TypesInfo
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	if m.syncRecv[sel] {
		return // the sync primitive itself; its ops became facts
	}
	isAtomic := m.atomicTarget[sel]
	write := m.writes[sel] || (isAtomic && m.atomicWrite[sel])
	if !isAtomic && !write && isSyncPkgType(v.Type()) {
		return // e.g. passing &wg around; not a data access
	}
	at := cfg.blockNodeAt(sel.Pos())

	// Fresh-object rule: accesses through a local whose every reaching
	// definition allocates a fresh object in this very function cannot be
	// shared — unless the local escaped to another goroutine.
	if base := baseIdent(sel.X); base != nil && !isAtomic {
		if bv, ok := info.Uses[base].(*types.Var); ok && a.isUnescapedLocal(fn, bv) && at != nil {
			defs := a.reach(fn).defsReaching(at, bv)
			if len(defs) > 0 && a.allFresh(defs, bv) {
				return
			}
		}
	}

	recvDirect := false
	if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if rv := recvVarOf(info, fn); rv != nil && info.Uses[base] == rv {
			recvDirect = true
		}
	}
	recvType := s.Recv()
	if p, ok := recvType.(*types.Pointer); ok {
		recvType = p.Elem()
	}
	typeName := types.TypeString(recvType, func(p *types.Package) string { return p.Name() })
	a.addAccess(&raceAccess{
		v: v, fn: fn, node: at, pos: sel.Pos(),
		write: write, atomic: isAtomic, recvDirect: recvDirect,
		op:      m.atomicOp[sel],
		onceVar: a.onceVarOf(fn),
		desc:    fmt.Sprintf("field %s of %s", v.Name(), typeName),
	})
}

func (a *raceAnalysis) globalAccess(fn *funcNode, cfg *funcCFG, id *ast.Ident, m *accessMarks) {
	info := a.pass.TypesInfo
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Name() == "_" {
		return
	}
	if a.pass.Pkg == nil || v.Parent() != a.pass.Pkg.Scope() {
		return // locals, params, and cross-package vars are out of scope
	}
	if m.syncRecv[id] {
		return
	}
	isAtomic := m.atomicTarget[id]
	write := m.writes[id] || (isAtomic && m.atomicWrite[id])
	if !isAtomic && !write && isSyncPkgType(v.Type()) {
		return
	}
	a.addAccess(&raceAccess{
		v: v, fn: fn, node: cfg.blockNodeAt(id.Pos()), pos: id.Pos(),
		write: write, atomic: isAtomic,
		op:      m.atomicOp[id],
		onceVar: a.onceVarOf(fn),
		desc:    fmt.Sprintf("package variable %s", v.Name()),
	})
}

func (a *raceAnalysis) addAccess(acc *raceAccess) {
	a.accesses[acc.v] = append(a.accesses[acc.v], acc)
}

// isUnescapedLocal reports whether v is declared inside fn's body and its
// pointee never escapes to another goroutine (not captured by a literal,
// not mentioned in a go statement).
func (a *raceAnalysis) isUnescapedLocal(fn *funcNode, v *types.Var) bool {
	body := fn.body()
	if body == nil || a.escaped[v] {
		return false
	}
	return v.Pos() >= body.Pos() && v.Pos() < body.End()
}

// allFresh reports whether every reaching definition of v allocates a
// fresh object: v := &T{...}, v := T{...} (composite), or v := new(T).
func (a *raceAnalysis) allFresh(defs []*definition, v *types.Var) bool {
	for _, d := range defs {
		if d.node == nil || d.weak || !a.freshDef(d.node, v) {
			return false
		}
	}
	return true
}

func (a *raceAnalysis) freshDef(n ast.Node, v *types.Var) bool {
	info := a.pass.TypesInfo
	isVar := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		return info.Defs[id] == v || info.Uses[id] == v
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			if isVar(lhs) {
				return a.freshRHS(s.Rhs[i])
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
					return i < len(vs.Values) && a.freshRHS(vs.Values[i])
				}
			}
		}
	}
	return false
}

func (a *raceAnalysis) freshRHS(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		return ok
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

// onceVarOf resolves the sync.Once whose Do invokes fn, when fn is a
// literal passed directly to (*sync.Once).Do.
func (a *raceAnalysis) onceVarOf(fn *funcNode) *types.Var {
	if v, ok := a.onceMemo[fn]; ok {
		return v
	}
	var result *types.Var
	if fn.lit != nil {
		for _, e := range a.callers[fn] {
			call, ok := e.site.(*ast.CallExpr)
			if !ok || e.kind != callStatic {
				continue
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !isOnceDo(calleeFunc(a.pass.TypesInfo, call)) {
				continue
			}
			if len(call.Args) == 1 && ast.Unparen(call.Args[0]) == fn.lit {
				result = leafVar(a.pass.TypesInfo, sel.X)
			}
		}
	}
	a.onceMemo[fn] = result
	return result
}

// --- conflict detection ---

func (a *raceAnalysis) report() {
	vars := make([]*types.Var, 0, len(a.accesses))
	for v := range a.accesses {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })

	for _, v := range vars {
		accs := a.accesses[v]
		sort.SliceStable(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		a.checkVar(accs)
	}
}

// checkVar reports the first unordered conflicting pair for one location
// (one finding per location keeps output and baselines stable).
func (a *raceAnalysis) checkVar(accs []*raceAccess) {
	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			x, y := accs[i], accs[j]
			if !x.write && !y.write {
				continue
			}
			if x.atomic && y.atomic {
				continue
			}
			for _, rx := range a.gs.ctx[x.fn] {
				for _, ry := range a.gs.ctx[y.fn] {
					if !rx.concurrent(ry) {
						continue
					}
					if a.suppressed(x, y, rx, ry) {
						continue
					}
					a.reportPair(x, y, rx, ry)
					return
				}
			}
		}
	}
}

func (a *raceAnalysis) suppressed(x, y *raceAccess, rx, ry *gRoot) bool {
	// Trusted edge: both sides declared //abp:handshake — the Dekker
	// protocol between them is audited by the handshake analyzer.
	if a.factsOf(x.fn).trusted && a.factsOf(y.fn).trusted {
		return true
	}
	// Owner discipline: receiver-direct accesses inside the audited
	// //abp:owner closure operate on per-instance state.
	if x.recvDirect && y.recvDirect && a.owned[x.fn] && a.owned[y.fn] {
		return true
	}
	// sync.Once: both accesses inside Do bodies of the same Once are
	// mutually excluded and execute at most once.
	if x.onceVar != nil && x.onceVar == y.onceVar {
		return true
	}
	if a.lockExcluded(x, y) {
		return true
	}
	return a.ordered(x, rx, y, ry) || a.ordered(y, ry, x, rx)
}

// ordered reports whether an extracted happens-before fact places x (on
// root rx) before y (on root ry).
func (a *raceAnalysis) ordered(x *raceAccess, rx *gRoot, y *raceAccess, ry *gRoot) bool {
	// Fork: x is sequenced before every launch of ry's goroutine.
	if !ry.external && rx != ry && a.beforeLaunch(x, ry) {
		return true
	}
	// Join: rx's goroutine defers a WaitGroup Done that y's function
	// Waits for before the access.
	if !rx.external && rx != ry && a.afterJoin(y, rx) {
		return true
	}
	// Channel: x precedes a send/close whose receive precedes y.
	if a.pairedVia(x, y, a.factsOf(x.fn).sends, a.factsOf(y.fn).recvs) {
		return true
	}
	// Atomic release/acquire: x precedes an atomic store whose load
	// precedes y (branch polarity is not verified: over-approximation).
	if a.pairedVia(x, y, a.factsOf(x.fn).atomicW, a.factsOf(y.fn).atomicR) {
		return true
	}
	return false
}

// pairedVia implements the shared release/acquire shape: some release op
// (send, close, atomic store) of variable v in x's function cannot run
// before x, and a matching acquire op (receive, atomic load) of v
// dominates y.
func (a *raceAnalysis) pairedVia(x, y *raceAccess, releases, acquires []syncOp) bool {
	if x.node == nil || y.node == nil {
		return false
	}
	cgx, cgy := a.cfg(x.fn), a.cfg(y.fn)
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
// launching r: directly (all launch sites in x's function, none able to
// flow back to x) or transitively (x's function only ever called before
// the launch, the pre(r) closure).
func (a *raceAnalysis) beforeLaunch(x *raceAccess, r *gRoot) bool {
	if x.node != nil && a.allSitesIn(r, x.fn) {
		cfg := a.cfg(x.fn)
		ok := true
		for _, l := range r.sites {
			if l.stmt == nil || cfg.canReach(l.stmt, x.node) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return a.preSet(r)[x.fn]
}

func (a *raceAnalysis) allSitesIn(r *gRoot, fn *funcNode) bool {
	if len(r.sites) == 0 {
		return false
	}
	for _, l := range r.sites {
		if l.fn != fn {
			return false
		}
	}
	return true
}

// preSet computes the functions whose every activation completes before
// any launch of r: F qualifies when every incoming call edge either comes
// from a qualifying caller or is a static call in the launching function
// that no launch site can flow to.
func (a *raceAnalysis) preSet(r *gRoot) map[*funcNode]bool {
	if s, ok := a.preMemo[r]; ok {
		return s
	}
	pre := map[*funcNode]bool{}
	for changed := true; changed; {
		changed = false
		for _, n := range a.graph.nodes {
			if pre[n] {
				continue
			}
			edges := a.callers[n]
			if len(edges) == 0 {
				continue
			}
			ok := true
			for _, e := range edges {
				if pre[e.from] {
					continue
				}
				if e.kind == callStatic && a.allSitesIn(r, e.from) && a.siteBeforeLaunches(r, e) {
					continue
				}
				ok = false
				break
			}
			if ok {
				pre[n] = true
				changed = true
			}
		}
	}
	a.preMemo[r] = pre
	return pre
}

func (a *raceAnalysis) siteBeforeLaunches(r *gRoot, e callerEdge) bool {
	cfg := a.cfg(e.from)
	siteNode := cfg.blockNodeAt(e.site.Pos())
	if siteNode == nil {
		return false
	}
	for _, l := range r.sites {
		if l.stmt == nil || cfg.canReach(l.stmt, siteNode) {
			return false
		}
	}
	return true
}

// afterJoin reports whether y is sequenced after a Wait on a WaitGroup
// that every instance of root r signals via a deferred Done.
func (a *raceAnalysis) afterJoin(y *raceAccess, r *gRoot) bool {
	jv := a.joinVars(r)
	if len(jv) == 0 {
		return false
	}
	if y.node != nil {
		cfg := a.cfg(y.fn)
		for _, w := range a.factsOf(y.fn).waits {
			if jv[w.v] && w.node != nil && cfg.dominates(w.node, y.node) {
				return true
			}
		}
	}
	return a.postSet(r)[y.fn]
}

// joinVars resolves the WaitGroups root r's entry function Done()s via
// defer. A Done on a parameter is threaded back through the launch-site
// arguments (go r.worker(i, &wg): the deferred wg.Done() joins the
// caller's wg).
func (a *raceAnalysis) joinVars(r *gRoot) map[*types.Var]bool {
	if s, ok := a.joinMemo[r]; ok {
		return s
	}
	out := map[*types.Var]bool{}
	if r.fn != nil {
		info := a.pass.TypesInfo
		for _, dv := range a.factsOf(r.fn).deferredDone {
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
	a.joinMemo[r] = out
	return out
}

// postSet computes the functions whose every activation starts after r is
// joined: every incoming edge is a static call dominated by a Wait on one
// of r's join variables, or comes from a qualifying caller.
func (a *raceAnalysis) postSet(r *gRoot) map[*funcNode]bool {
	if s, ok := a.postMemo[r]; ok {
		return s
	}
	post := map[*funcNode]bool{}
	jv := a.joinVars(r)
	if len(jv) > 0 {
		for changed := true; changed; {
			changed = false
			for _, n := range a.graph.nodes {
				if post[n] {
					continue
				}
				edges := a.callers[n]
				if len(edges) == 0 {
					continue
				}
				ok := true
				for _, e := range edges {
					if post[e.from] {
						continue
					}
					if e.kind == callStatic && a.waitDominatesSite(jv, e) {
						continue
					}
					ok = false
					break
				}
				if ok {
					post[n] = true
					changed = true
				}
			}
		}
	}
	a.postMemo[r] = post
	return post
}

func (a *raceAnalysis) waitDominatesSite(jv map[*types.Var]bool, e callerEdge) bool {
	cfg := a.cfg(e.from)
	siteNode := cfg.blockNodeAt(e.site.Pos())
	if siteNode == nil {
		return false
	}
	for _, w := range a.factsOf(e.from).waits {
		if jv[w.v] && w.node != nil && cfg.dominates(w.node, siteNode) {
			return true
		}
	}
	return false
}

// --- locksets ---

// lockExcluded reports whether x and y hold a common mutex with at least
// one side in exclusive mode.
func (a *raceAnalysis) lockExcluded(x, y *raceAccess) bool {
	hx := a.locksAtNode(x.fn, x.node)
	if len(hx) == 0 {
		return false
	}
	hy := a.locksAtNode(y.fn, y.node)
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
// node). Bits: 1 = exclusive, 2 = shared (RLock). Deferred Unlocks never
// kill; conditional Unlocks off the dominating path are missed — an
// accepted over-approximation noted in DESIGN.md.
func (a *raceAnalysis) locksAtNode(fn *funcNode, node ast.Node) map[*types.Var]uint8 {
	held := map[*types.Var]uint8{}
	for k, v := range a.inheritedLocks(fn) {
		held[k] = v
	}
	if node == nil {
		return held
	}
	f := a.factsOf(fn)
	cfg := a.cfg(fn)
	for _, l := range f.locks {
		if l.node == nil || !cfg.dominates(l.node, node) {
			continue
		}
		killed := false
		for _, u := range f.unlocks {
			if u.v != l.v || u.read != l.read || u.node == nil {
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
func (a *raceAnalysis) inheritedLocks(fn *funcNode) map[*types.Var]uint8 {
	if s, ok := a.inhMemo[fn]; ok {
		return s
	}
	if a.inhInProgress[fn] {
		return nil
	}
	a.inhInProgress[fn] = true
	defer delete(a.inhInProgress, fn)

	var result map[*types.Var]uint8
	edges := a.callers[fn]
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
				siteNode := a.cfg(e.from).blockNodeAt(e.site.Pos())
				s := a.locksAtNode(e.from, siteNode)
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
	a.inhMemo[fn] = result
	return result
}

// --- reporting ---

func (a *raceAnalysis) reportPair(x, y *raceAccess, rx, ry *gRoot) {
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
	a.pass.Reportf(x.pos,
		"possible data race on %s: %s in %s [%s] conflicts with %s in %s [%s]; no happens-before edge orders the accesses (suppress with //abp:race-ignore <justification>)",
		x.desc, x.kind(), x.fn.name(), ctx(rx, x.fn), y.kind(), y.fn.name(), cy)
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
	if fn == nil {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	return named.Obj().Name()
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
