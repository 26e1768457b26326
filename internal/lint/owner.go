package lint

import (
	"go/ast"
	"go/types"
)

// Owner enforces the deque ownership contract of paper Section 3.2 over the
// //abp:owner closure, from both sides. A "good set of invocations" has
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
//
// Inside the closure, it closes the loophole that reachability argument
// leaves open: an audited owner function can still leak the deque itself
// to a context the call graph never sees — hand it to a new goroutine, send
// it down a channel, or store it into a struct another goroutine reads. Any
// of those silently manufactures a second "owner", voiding the good-set
// premise that every safety property of the Figure 5 deque is conditional
// on. So in every owned function (and the function literals it owns) the
// analyzer flags a deque-typed value — any type whose method set has
// PushBottom+PopBottom or startPushBottom+startPopBottom — that escapes via:
//
//   - a go statement (argument, receiver, or a closure capturing it),
//   - a channel send, or
//   - a store to a struct field, slice/map element, composite literal, or
//     package-level variable.
//
// Locals, parameter passing to statically resolved calls (whose callees
// are owned in turn), and returns are not escapes: the single-owner
// argument for them is the caller's obligation.
var Owner = &Analyzer{
	Name: "owner",
	Doc:  "requires PushBottom/PopBottom references to be reachable from an //abp:owner-annotated function, and forbids such a function's deque (or a closure capturing it) from escaping via go statements, channel sends, or stores",
	Run:  runOwner,
}

func runOwner(pass *Pass) error {
	for _, node := range pass.facts.graph.nodes {
		if pass.facts.owned[node] {
			checkOwnerEscapes(pass, node)
		} else {
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

// checkOwnerEscapes reports the deque-typed values that escape node, which
// is inside the owner closure.
func checkOwnerEscapes(pass *Pass, node *funcNode) {
	cg := pass.facts.graph
	// describe reports why e escaping matters: the expression is itself
	// deque-typed, or a function literal capturing a deque-typed variable.
	describe := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		if isDequeLike(pass.TypesInfo.TypeOf(e), pass.Pkg) {
			return "deque " + exprString(e), true
		}
		if lit, ok := e.(*ast.FuncLit); ok {
			for _, v := range cg.captures(lit) {
				if isDequeLike(v.Type(), pass.Pkg) {
					return "closure capturing deque " + v.Name(), true
				}
			}
		}
		return "", false
	}

	node.inspectOwn(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The launched callee's receiver and arguments all move to
			// the new goroutine.
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
				if what, bad := describe(sel.X); bad {
					pass.Reportf(n.Pos(),
						"%s escapes %s into a go statement: the new goroutine is not the deque's single owner (paper §3.2)",
						node.name(), what)
				}
			}
			if what, bad := describe(n.Call.Fun); bad {
				pass.Reportf(n.Pos(),
					"%s launches a %s on a new goroutine, which is not the deque's single owner (paper §3.2)",
					node.name(), what)
			}
			for _, arg := range n.Call.Args {
				if what, bad := describe(arg); bad {
					pass.Reportf(arg.Pos(),
						"%s passes %s to a go statement: the new goroutine is not the deque's single owner (paper §3.2)",
						node.name(), what)
				}
			}
		case *ast.SendStmt:
			if what, bad := describe(n.Value); bad {
				pass.Reportf(n.Pos(),
					"%s sends %s on a channel: the receiver is not the deque's single owner (paper §3.2)",
					node.name(), what)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break // tuple assignment: RHS is a single call, not a deque
				}
				if !isEscapingLValue(pass.TypesInfo, lhs) {
					continue
				}
				if what, bad := describe(n.Rhs[i]); bad {
					pass.Reportf(n.Rhs[i].Pos(),
						"%s stores %s into %s: a context outside the audited owner call graph could reach it (paper §3.2)",
						node.name(), what, exprString(lhs))
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if what, bad := describe(v); bad {
					pass.Reportf(v.Pos(),
						"%s embeds %s in a composite literal: the containing value may escape the owner context (paper §3.2)",
						node.name(), what)
				}
			}
		}
		return true
	})
}

// isEscapingLValue reports whether assigning to lhs publishes the value
// beyond the current function: struct fields, slice/map/array elements,
// pointer dereferences, and package-level variables. Plain locals do not
// escape by assignment.
func isEscapingLValue(info *types.Info, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true // field store (package-qualified idents are not assignable fields here)
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		v, ok := info.Uses[lhs].(*types.Var)
		if !ok {
			if v, ok = info.Defs[lhs].(*types.Var); !ok {
				return false
			}
		}
		// Package-level variables are shared state.
		return v.Parent() != nil && v.Parent().Parent() == types.Universe
	}
	return false
}

// isDequeLike reports whether t's method set (value or pointer) carries the
// owner-only deque operations, in either the production naming
// (PushBottom/PopBottom: package deque and its Dequer interface) or the
// simulator naming (startPushBottom/startPopBottom: package sim's
// dequeOps). from scopes unexported-method lookup to the analyzed package.
func isDequeLike(t types.Type, from *types.Package) bool {
	if t == nil {
		return false
	}
	has := func(name string) bool {
		obj, _, _ := types.LookupFieldOrMethod(t, true, from, name)
		_, ok := obj.(*types.Func)
		return ok
	}
	return (has("PushBottom") && has("PopBottom")) ||
		(has("startPushBottom") && has("startPopBottom"))
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
