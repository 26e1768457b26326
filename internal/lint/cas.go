package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CAS checks the discipline that keeps a compare-and-swap retry loop from
// succeeding against a value it never observed — the ABA failure class the
// paper's tagged age word exists to prevent (Section 3.2, "bounded tags") —
// in one walk over the package's CAS sites (wrapper-method CompareAndSwap
// or function-style atomic.CompareAndSwapX; casExpected).
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
var CAS = &Analyzer{
	Name: "cas",
	Doc:  "flags CAS retry loops whose expected value is not reloaded inside the loop (stale read; ABA risk)",
	Run:  runCAS,
}

func runCAS(pass *Pass) error {
	info := pass.TypesInfo
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
			if oldArg := casExpected(info, n); oldArg != nil && len(loops) > 0 {
				checkReloaded(pass, loops[len(loops)-1], oldArg)
			}
		}
		return true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, walk)
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

// casExpected returns the expected ("old") operand of a sync/atomic
// compare-and-swap — wrapper form x.CompareAndSwap(old, new) or function
// form atomic.CompareAndSwapT(&addr, old, new) — or nil when call is not
// one.
func casExpected(info *types.Info, call *ast.CallExpr) ast.Expr {
	fn := calleeFunc(info, call)
	if fn == nil || !strings.HasPrefix(fn.Name(), "CompareAndSwap") {
		return nil
	}
	switch {
	case isAtomicMethod(fn) && len(call.Args) == 2:
		return call.Args[0]
	case isAtomicFunc(fn) && len(call.Args) == 3:
		return call.Args[1]
	}
	return nil
}
