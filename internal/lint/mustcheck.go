package lint

import (
	"go/ast"
	"go/types"
)

// MustCheck guards against the exact bug class PR 1 fixed in submitRoot: a
// PushBottom on the Figure 5 deque is a REQUEST, not a guarantee — it
// returns false when the bounded array is full (and a CompareAndSwap
// returns false when a concurrent thief won the race). Discarding that
// boolean silently drops a task or retries nothing, which in the pool
// manifested as a deadlocked Pool.Run waiting on work that was never
// enqueued. The analyzer therefore requires the single boolean result of
// every CAS-shaped call (PushBottom, or any CompareAndSwap* returning one
// bool — see isCASShaped) to be consulted.
//
// Three discard shapes are flagged syntactically: a bare expression
// statement, a go/defer of the call, and an assignment to the blank
// identifier. The fourth is flow-aware: `ok := d.PushBottom(t)` followed by
// code that never reads THAT definition of ok on any path. Reaching
// definitions over the function CFG (cfg.go) decide liveness, so a use in
// one branch, a use after a loop, or a capture by a closure all count,
// while a variable that is only overwritten does not.
var MustCheck = &Analyzer{
	Name: "mustcheck",
	Doc:  "requires the boolean result of PushBottom/CompareAndSwap-shaped calls to be consulted",
	Run:  runMustCheck,
}

func runMustCheck(pass *Pass) error {
	// Every function — declaration or literal — is checked against its
	// own CFG: a literal's body is a separate function with separate flow.
	for _, fn := range pass.facts.graph.nodes {
		if fn.body() != nil {
			checkMustCheckBody(pass, fn)
		}
	}
	return nil
}

// checkMustCheckBody analyzes one function's own body; calls inside nested
// literals belong to those literals' nodes.
func checkMustCheckBody(pass *Pass, fn *funcNode) {
	body := fn.body()
	// holder maps a call to the statement that receives (or drops) its
	// result, parentheses aside; statements are visited before the calls
	// they hold.
	holder := map[*ast.CallExpr]ast.Stmt{}
	hold := func(e ast.Expr, s ast.Stmt) {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			holder[call] = s
		}
	}
	fn.inspectOwn(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			hold(n.X, n)
		case *ast.GoStmt:
			hold(n.Call, n)
		case *ast.DeferStmt:
			hold(n.Call, n)
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				hold(rhs, n)
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isCASShaped(calleeFunc(pass.TypesInfo, call)) {
			return true
		}
		what := exprString(call.Fun)
		switch p := holder[call].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(),
				"boolean result of %s is discarded: a refused push or failed CAS must be handled, not dropped (the PR-1 submitRoot deadlock class)", what)
		case *ast.GoStmt:
			pass.Reportf(call.Pos(),
				"boolean result of %s is discarded by the go statement: the new goroutine cannot report a refused push or failed CAS", what)
		case *ast.DeferStmt:
			pass.Reportf(call.Pos(),
				"boolean result of %s is discarded by the defer statement: a refused push or failed CAS at function exit goes unhandled", what)
		case *ast.AssignStmt:
			lhs := assignTargetFor(p, call)
			if lhs == nil {
				return true
			}
			ident, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return true // stored into a field/element: consulted elsewhere
			}
			if ident.Name == "_" {
				pass.Reportf(call.Pos(),
					"boolean result of %s is explicitly discarded to _: handle the refusal or justify it with //abp:ignore mustcheck", what)
				return true
			}
			v := varOfIdent(pass.TypesInfo, ident)
			if v == nil {
				return true
			}
			g, r := pass.facts.cfg(fn), pass.facts.reach(fn)
			defNode := g.blockNodeAt(p.Pos())
			if defNode == nil {
				return true // assignment not in this body's CFG: be quiet
			}
			if !definitionReachesUse(pass.TypesInfo, g, r, body, defNode, v) {
				pass.Reportf(call.Pos(),
					"boolean result of %s is assigned to %q but that value is never consulted on any path: a refused push or failed CAS goes unhandled", what, ident.Name)
			}
		}
		return true
	})
}

// definitionReachesUse reports whether the definition of v performed at
// defNode can reach at least one read of v. Reads inside nested function
// literals count (the closure may run while the definition is live); writes
// (assignment targets, inc/dec operands) do not.
func definitionReachesUse(info *types.Info, g *funcCFG, r *reachInfo, body *ast.BlockStmt, defNode ast.Node, v *types.Var) bool {
	writes := writeTargets(body)
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if writes[ident] || info.Uses[ident] != v {
			return true
		}
		useNode := g.blockNodeAt(ident.Pos())
		if useNode == nil {
			used = true // outside the CFG: conservatively treat as used
			return false
		}
		for _, d := range r.defsReaching(useNode, v) {
			if d.node == defNode {
				used = true
				return false
			}
		}
		return true
	})
	return used
}

// writeTargets collects identifiers that appear as assignment LHS or
// inc/dec operands — occurrences that write v rather than read it.
func writeTargets(body *ast.BlockStmt) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					writes[id] = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				writes[id] = true
			}
		}
		return true
	})
	return writes
}

// assignTargetFor returns the LHS expression the call's result lands in,
// for the 1:1 assignment form. Tuple-from-call does not apply: CAS-shaped
// functions have exactly one result.
func assignTargetFor(as *ast.AssignStmt, call *ast.CallExpr) ast.Expr {
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call && i < len(as.Lhs) {
			return as.Lhs[i]
		}
	}
	return nil
}

// varOfIdent resolves an identifier to the variable it denotes, through
// either a definition (`:=`) or a use (`=`).
func varOfIdent(info *types.Info, ident *ast.Ident) *types.Var {
	if v, ok := info.Defs[ident].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[ident].(*types.Var)
	return v
}
