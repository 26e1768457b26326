package lint

import (
	"go/ast"
	"go/types"
)

// Owner enforces the deque ownership contract of paper Section 3.2 over the
// //abp:owner closure. A "good set of invocations" has
// PushBottom and PopBottom called only by the deque's single owner.
// Ownership is not a property go/types can see, so it is declared: a
// function carrying the //abp:owner directive is an audited owner context
// (the worker loop that owns its deque, or a quiescent phase such as the
// between-runs drain).
//
// Outside the closure, the analyzer flags every reference to a PushBottom
// or PopBottom method — call or method value — whose innermost enclosing
// function is neither annotated nor reachable from an annotated function
// along the package call graph (callgraph.go).
//
// Reachability is goroutine-aware: ownership extends along plain calls and
// defers (the callee runs on the owner's goroutine) but never across a `go`
// statement — `go helper(d)` hands the deque to a NEW goroutine, which is
// by definition not the single owner, so helper needs its own audited
// annotation. Function literals are separate call-graph nodes: one that is
// invoked in place (or deferred) inherits the enclosing owner context,
// while one that is launched via `go` or escapes as a value (stored,
// passed, sent) inherits nothing. Dynamic dispatch and cross-package calls
// likewise do not extend the reachable set. That is deliberate — every new
// owner context should be written down and reviewed, exactly as TR-99-11
// reviews the good-set assumption.
var Owner = &Analyzer{
	Name: "owner",
	Doc:  "requires PushBottom/PopBottom references to be reachable from an //abp:owner-annotated function",
	Run:  runOwner,
}

func runOwner(pass *Pass) error {
	for _, node := range pass.facts.graph.nodes {
		if !pass.facts.owned[node] {
			checkOwnerOnly(pass, node)
		}
	}
	return nil
}

// checkOwnerOnly reports the owner-only operations node, which is outside
// the owner closure, refers to.
func checkOwnerOnly(pass *Pass, node *funcNode) {
	node.inspectOwn(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "PushBottom" && sel.Sel.Name != "PopBottom" {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s called outside an owner context: %s is not reachable from any //abp:owner function (single-owner contract, paper §3.2)",
			sel.Sel.Name, node.name())
		return true
	})
}

// exprString renders a short expression for diagnostics (identifiers and
// selector chains; anything else becomes "value").
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "value"
	}
}
