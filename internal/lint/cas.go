package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// CAS checks the two disciplines that keep a compare-and-swap from
// succeeding against a value it never observed — the ABA failure class the
// paper's tagged age word exists to prevent (Section 3.2, "bounded tags") —
// in one walk over the package's CAS sites (wrapper-method CompareAndSwap
// or function-style atomic.CompareAndSwapX; casOperands).
//
// The expected value is reloaded. Retrying a failed CAS with the same stale
// expectation either spins forever or, worse, eventually succeeds against a
// recycled value. The fix is mechanical: move the load of the expected
// value inside the loop, as Figure 5's popTop does by re-reading age on
// every attempt. A CAS inside a for loop is reported when its expected
// operand is a variable that is not assigned anywhere in the loop's body or
// post statement. Expected operands that are constants, fresh per-iteration
// loads, or non-identifier expressions are never flagged, and a variable
// whose address is taken inside the loop is conservatively assumed
// reloaded.
//
// The tag is incremented — the ABA argument of Figure 5 itself: the age
// word packs (tag, top), and every CAS that RESETS top — PopBottom emptying
// the deque, the queue-empty reset path — must simultaneously install an
// incremented tag. If top returns to an old value with the tag unchanged, a
// thief that loaded the age word before the reset can still CAS
// successfully and "steal" an entry that was already popped. The increment
// makes every recycled top index distinguishable; TR-99-11's unbounded tag
// (practically, a 32-bit wrap) is what lets the linearizability proof treat
// each age value as unique. A CAS whose new value is an age build that
// resets top to the constant 0 — a call to a pack-style helper (any
// function whose name contains "pack") with a constant-0 top argument, or a
// composite literal with Tag/Top fields and Top: 0 — is held to two
// requirements; the new value is resolved through reaching definitions
// (cfg.go), so `newAge := packAge(...); CAS(old, newAge)` is seen through:
//
//  1. the tag operand is an increment (base + constant, optionally
//     &-masked for wraparound), and
//  2. the incremented base is FRESH: every reaching definition of it in
//     this function derives from a Load or unpack-style call. A base that
//     is a parameter, a package-level variable, or a constant re-arms the
//     ABA window with a possibly stale tag.
//
// Bases that are not plain identifiers (field reads, call results) are
// accepted: the analyzer checks local staleness, not cross-function
// provenance.
var CAS = &Analyzer{
	Name: "cas",
	Doc:  "flags CAS retry loops whose expected value is not reloaded inside the loop (stale read; ABA risk), and requires every top-resetting CAS to install a freshly loaded, incremented tag (Figure 5 ABA guard)",
	Run:  runCAS,
}

func runCAS(pass *Pass) error {
	info, g := pass.TypesInfo, pass.facts.graph
	// decl is the function declaration the walk is inside, nil in a
	// package-level initializer: a CAS in a nested literal resolves to the
	// block node the literal sits in, under the declaration's own CFG.
	var decl *funcNode
	var loops []*ast.ForStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n)
			// Init runs once: CAS expectations loaded there are stale on
			// retry, so only Cond/Body/Post count as inside the loop.
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			if n.Cond != nil {
				ast.Inspect(n.Cond, walk)
			}
			if n.Post != nil {
				ast.Inspect(n.Post, walk)
			}
			ast.Inspect(n.Body, walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.CallExpr:
			oldArg, newArg := casOperands(info, n)
			if oldArg == nil {
				return true
			}
			if len(loops) > 0 {
				checkReloaded(pass, loops[len(loops)-1], oldArg)
			}
			if decl != nil {
				checkTagReset(pass, decl, n, newArg)
			}
		}
		return true
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl = nil
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn, _ := info.Defs[fd.Name].(*types.Func)
				decl = g.declNode[fn]
			}
			ast.Inspect(d, walk)
		}
	}
	return nil
}

// checkReloaded reports a CAS whose expected operand is a variable that
// loop, the innermost around it, never assigns.
func checkReloaded(pass *Pass, loop *ast.ForStmt, oldArg ast.Expr) {
	ident, ok := ast.Unparen(oldArg).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.TypesInfo.Uses[ident].(*types.Var)
	if !ok {
		return // nil, constants, etc.
	}
	if !assignedIn(pass.TypesInfo, loop, v) {
		pass.Reportf(oldArg.Pos(),
			"CAS retry loop never reloads expected value %q: a failed CompareAndSwap retries with a stale read (ABA risk); load %q inside the loop",
			v.Name(), v.Name())
	}
}

// checkTagReset holds every age build that may flow into the new-value
// operand of the CAS call, inside declaration fn, to the Figure 5
// requirements.
func checkTagReset(pass *Pass, fn *funcNode, call *ast.CallExpr, newArg ast.Expr) {
	g, r := pass.facts.cfg(fn), pass.facts.reach(fn)
	casNode := g.blockNodeAt(call.Pos())
	if casNode == nil {
		return
	}
	for _, cand := range resolveBuilds(pass.TypesInfo, r, newArg, casNode) {
		checkAgeBuild(pass, r, cand)
	}
}

// assignedIn reports whether v is (re)assigned inside loop's body or post
// statement — by assignment, short declaration, declaration, inc/dec,
// range binding, or (conservatively) having its address taken. The CAS
// call's own position is irrelevant: an assignment anywhere in the body
// reloads before the next retry.
func assignedIn(info *types.Info, loop *ast.ForStmt, v *types.Var) bool {
	found := false
	objOf := func(e ast.Expr) types.Object {
		ident, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o := info.Defs[ident]; o != nil {
			return o
		}
		return info.Uses[ident]
	}
	check := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if objOf(lhs) == v {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if objOf(n.X) == v {
				found = true
			}
		case *ast.RangeStmt:
			if objOf(n.Key) == v || objOf(n.Value) == v {
				found = true
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if info.Defs[name] == v {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && objOf(n.X) == v {
				found = true // address escapes; assume a reload happens
			}
		}
		return !found
	}
	ast.Inspect(loop.Body, check)
	if loop.Post != nil {
		ast.Inspect(loop.Post, check)
	}
	return found
}

// ageBuild is one resolved construction of a CAS new-value: the expression,
// its tag and top operands, and the block node it is evaluated in.
type ageBuild struct {
	expr     ast.Expr
	tag, top ast.Expr
	at       ast.Node
}

// casOperands returns the expected ("old") and new-value operands of a
// sync/atomic compare-and-swap — wrapper form x.CompareAndSwap(old, new) or
// function form atomic.CompareAndSwapT(&addr, old, new) — or nils when call
// is not one.
func casOperands(info *types.Info, call *ast.CallExpr) (old, new ast.Expr) {
	fn := calleeFunc(info, call)
	if fn == nil || !strings.HasPrefix(fn.Name(), "CompareAndSwap") {
		return nil, nil
	}
	switch {
	case isAtomicMethod(fn) && len(call.Args) == 2:
		return call.Args[0], call.Args[1]
	case isAtomicFunc(fn) && len(call.Args) == 3:
		return call.Args[1], call.Args[2]
	}
	return nil, nil
}

// resolveBuilds resolves the CAS new-value expression to the age-build
// expressions that may flow into it: the expression itself, or — when it is
// a plain identifier — the right-hand sides of its reaching definitions.
func resolveBuilds(info *types.Info, r *reachInfo, e ast.Expr, casNode ast.Node) []ageBuild {
	e = ast.Unparen(e)
	if b, ok := asAgeBuild(info, e); ok {
		b.at = casNode
		return []ageBuild{b}
	}
	ident, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v := varOfIdent(info, ident)
	if v == nil {
		return nil
	}
	var out []ageBuild
	for _, d := range r.defsReaching(casNode, v) {
		if d.node == nil {
			continue // entry definition: a parameter carries no visible build
		}
		for _, rhs := range defRHS(d.node, v, info) {
			if b, ok := asAgeBuild(info, ast.Unparen(rhs)); ok {
				b.at = d.node
				out = append(out, b)
			}
		}
	}
	return out
}

// defRHS extracts the expressions assigned to v by the definition node: the
// matching RHS of a 1:1 assignment or value spec.
func defRHS(node ast.Node, v *types.Var, info *types.Info) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && varOfIdent(info, id) == v {
					out = append(out, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, name := range n.Names {
				if varOfIdent(info, name) == v {
					out = append(out, n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// asAgeBuild recognizes an age-word construction: packAge-style call
// (tag, top) or a Tag/Top composite literal, possibly behind &.
func asAgeBuild(info *types.Info, e ast.Expr) (ageBuild, bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		if fn != nil && strings.Contains(strings.ToLower(fn.Name()), "pack") && len(e.Args) >= 2 {
			return ageBuild{expr: e, tag: e.Args[0], top: e.Args[1]}, true
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return asAgeBuild(info, ast.Unparen(e.X))
		}
	case *ast.CompositeLit:
		var b ageBuild
		b.expr = e
		for _, el := range e.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch strings.ToLower(key.Name) {
			case "tag":
				b.tag = kv.Value
			case "top":
				b.top = kv.Value
			}
		}
		if b.tag != nil && b.top != nil {
			return b, true
		}
	}
	return ageBuild{}, false
}

// checkAgeBuild applies the two Figure 5 requirements to one top-resetting
// age build. Builds whose top operand is not the constant 0 are not resets
// (PopTop advances top; only resets recycle indexes) and are skipped.
func checkAgeBuild(pass *Pass, r *reachInfo, b ageBuild) {
	if !isConstZero(pass.TypesInfo, b.top) {
		return
	}
	base, ok := incrementBase(b.tag)
	if !ok {
		pass.Reportf(b.tag.Pos(),
			"CAS resets top to 0 without incrementing the tag (%s): a thief holding the old age word can succeed against the recycled top index (ABA; Figure 5 bumps the tag on every reset)",
			exprString(b.tag))
		return
	}
	base = ast.Unparen(base)
	if tv, ok := pass.TypesInfo.Types[base]; ok && tv.Value != nil {
		pass.Reportf(b.tag.Pos(),
			"top-resetting CAS builds its tag from the constant %s, not a freshly loaded tag: reused constants re-arm the ABA window Figure 5's increment closes", tv.Value)
		return
	}
	ident, ok := base.(*ast.Ident)
	if !ok {
		return // field read or call result: local staleness not decidable, accept
	}
	v := varOfIdent(pass.TypesInfo, ident)
	if v == nil {
		return
	}
	defs := r.defsReaching(b.at, v)
	if len(defs) == 0 {
		pass.Reportf(ident.Pos(),
			"tag base %q of the top-resetting CAS has no definition in this function (package-level or shadowed state): the tag must be freshly loaded before the reset (Figure 5 ABA guard)", ident.Name)
		return
	}
	for _, d := range defs {
		if d.node == nil {
			pass.Reportf(ident.Pos(),
				"tag base %q of the top-resetting CAS is a parameter, not freshly loaded in this function: a stale caller-supplied tag re-arms the ABA window (Figure 5 ABA guard)", ident.Name)
			return
		}
		if !derivesFromLoad(pass.TypesInfo, d.node) {
			pass.Reportf(ident.Pos(),
				"tag base %q of the top-resetting CAS is not derived from a Load or unpack on every path: a stale tag re-arms the ABA window (Figure 5 ABA guard)", ident.Name)
			return
		}
	}
}

// incrementBase recognizes tag-increment shapes: base + c, c + base, and a
// masked wraparound (base + c) & m or (base + c) % m, returning base.
func incrementBase(e ast.Expr) (ast.Expr, bool) {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return nil, false
	}
	switch bin.Op {
	case token.ADD:
		// One operand must be a non-zero constant literal; the other is the base.
		if isIntLiteral(bin.Y) {
			return bin.X, true
		}
		if isIntLiteral(bin.X) {
			return bin.Y, true
		}
	case token.AND, token.REM:
		// Masked form: the increment is inside either operand.
		if base, ok := incrementBase(bin.X); ok {
			return base, true
		}
		return incrementBase(bin.Y)
	}
	return nil, false
}

func isIntLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && (lit.Kind == token.INT)
}

// derivesFromLoad reports whether the definition statement obtains its
// value from an atomic/load-style source: a call whose name is or starts
// with "Load", or contains "unpack" (the age-word decoder).
func derivesFromLoad(info *types.Info, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return !found
		}
		name := strings.ToLower(fn.Name())
		if strings.HasPrefix(name, "load") || strings.Contains(name, "unpack") {
			found = true
		}
		return !found
	})
	return found
}

func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	val, ok := constant.Int64Val(tv.Value)
	return ok && val == 0
}
