package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The call graph is the second half of the flow-aware engine: where the CFG
// (cfg.go) orders operations inside one function, the call graph relates
// functions — including the relations PR 2's syntactic walks could not see.
// Every function literal is a first-class node with a lexical parent, every
// edge is labelled with how the callee runs (plain call, go statement,
// defer), and closure captures are resolved through go/types. That is
// exactly the information the ownership analyses need: a `go` edge moves
// the callee to another goroutine (so deque ownership must NOT propagate
// across it), a defer edge stays on the calling goroutine (so it must), and
// a function literal that is never immediately invoked is a value whose
// eventual caller is unknown (so it inherits nothing).

// A funcNode is one function in the call graph: a top-level declaration or
// a function literal.
type funcNode struct {
	decl   *ast.FuncDecl // nil for literals
	lit    *ast.FuncLit  // nil for declarations
	parent *funcNode     // lexically enclosing node; nil for declarations
}

// body returns the node's body, which may be nil (declared externally).
func (n *funcNode) body() *ast.BlockStmt {
	if n.decl != nil {
		return n.decl.Body
	}
	return n.lit.Body
}

// name renders the node for diagnostics: the declaration's name, or the
// enclosing declaration's name with a "function literal in" prefix.
func (n *funcNode) name() string {
	if n.decl != nil {
		return funcName(n.decl)
	}
	for p := n.parent; p != nil; p = p.parent {
		if p.decl != nil {
			return fmt.Sprintf("function literal in %s", funcName(p.decl))
		}
	}
	return "function literal"
}

// A callKind labels how a call edge transfers control.
type callKind uint8

const (
	// callStatic is a plain, synchronous call on the current goroutine.
	callStatic callKind = iota
	// callGo launches the callee on a new goroutine.
	callGo
	// callDefer schedules the callee on the current goroutine at return.
	callDefer
)

func (k callKind) String() string {
	switch k {
	case callGo:
		return "go"
	case callDefer:
		return "defer"
	default:
		return "call"
	}
}

type callEdge struct {
	to   *funcNode
	kind callKind
	// site is the block-level statement or expression performing the call
	// (the *ast.GoStmt / *ast.DeferStmt for go/defer edges, the
	// *ast.CallExpr otherwise), so interprocedural clients can ask the
	// caller's CFG ordering questions about the edge.
	site ast.Node
}

// A callGraph is the package-level call graph: one node per declaration and
// per function literal, with labelled edges for statically resolvable
// calls. Calls through function values, interface methods that do not
// resolve, and cross-package callees produce no edge — the analyzers treat
// absence of an edge conservatively. The one function value that resolves
// is a field the package only ever sets to one function (bound).
type callGraph struct {
	info     *types.Info
	nodes    []*funcNode
	declNode map[*types.Func]*funcNode
	litNode  map[*ast.FuncLit]*funcNode
	edges    map[*funcNode][]callEdge
	bound    map[*types.Var]*types.Func

	captured map[*ast.FuncLit][]*types.Var
}

// newCallGraph builds the call graph of one type-checked package's files.
func newCallGraph(info *types.Info, files []*ast.File) *callGraph {
	g := &callGraph{
		info:     info,
		declNode: map[*types.Func]*funcNode{},
		litNode:  map[*ast.FuncLit]*funcNode{},
		edges:    map[*funcNode][]callEdge{},
		captured: map[*ast.FuncLit][]*types.Var{},
		bound:    boundFields(info, files),
	}
	// Phase 1: register every declaration so forward references resolve.
	decls := declsOf(files)
	for _, fd := range decls {
		node := &funcNode{decl: fd}
		g.nodes = append(g.nodes, node)
		if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
			g.declNode[fn] = node
		}
	}
	// Phase 2: walk bodies, creating literal nodes and edges.
	for i, fd := range decls {
		if fd.Body != nil {
			g.walk(g.nodes[i], fd.Body)
		}
	}
	return g
}

// walk scans one node's own body. Nested literals become child nodes and
// are walked once, under themselves.
func (g *callGraph) walk(from *funcNode, n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			child := g.addLit(x, from)
			g.walk(child, x.Body)
			return false
		case *ast.GoStmt:
			g.handleCall(from, x.Call, callGo, x)
			return false
		case *ast.DeferStmt:
			g.handleCall(from, x.Call, callDefer, x)
			return false
		case *ast.CallExpr:
			g.handleCall(from, x, callStatic, x)
			return false
		}
		return true
	})
}

func (g *callGraph) addLit(lit *ast.FuncLit, parent *funcNode) *funcNode {
	if n, ok := g.litNode[lit]; ok {
		return n
	}
	n := &funcNode{lit: lit, parent: parent}
	g.nodes = append(g.nodes, n)
	g.litNode[lit] = n
	return n
}

func (g *callGraph) handleCall(from *funcNode, call *ast.CallExpr, kind callKind, site ast.Node) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		child := g.addLit(lit, from)
		g.edges[from] = append(g.edges[from], callEdge{to: child, kind: kind, site: site})
		g.walk(child, lit.Body)
	} else {
		fn := calleeFunc(g.info, call)
		if fn == nil {
			fn = g.bound[fieldVar(g.info, call.Fun)]
		}
		if fn != nil {
			if to, ok := g.declNode[fn]; ok {
				g.edges[from] = append(g.edges[from], callEdge{to: to, kind: kind, site: site})
			}
			// sync.Once.Do invokes its argument synchronously on the
			// calling goroutine (at most once, under the Once's mutual
			// exclusion), so a literal passed to it is a static callee,
			// not an escaping value.
			if isOnceDo(fn) && len(call.Args) == 1 {
				if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
					child := g.addLit(lit, from)
					g.edges[from] = append(g.edges[from], callEdge{to: child, kind: callStatic, site: site})
				}
			}
		}
		// The callee expression itself may contain calls or literals
		// (f(x)(y), (func(){...})()-returning chains): walk it.
		g.walk(from, call.Fun)
	}
	for _, arg := range call.Args {
		g.walk(from, arg)
	}
}

// boundFields maps each func-typed field that the package only ever sets to
// one declared function or method value — x.f = y.m, T{f: y.m} — to that
// function, so that a call through the field (go w.loopFn()) resolves as a
// call of the function does. A field also set to anything else, or whose
// address is taken, maps to nil.
func boundFields(info *types.Info, files []*ast.File) map[*types.Var]*types.Func {
	bound := map[*types.Var]*types.Func{}
	bind := func(v *types.Var, value ast.Expr) {
		if v == nil {
			return
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return
		}
		var fn *types.Func
		switch x := ast.Unparen(value).(type) {
		case *ast.Ident:
			fn, _ = info.Uses[x].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = info.Uses[x.Sel].(*types.Func)
		}
		if old, seen := bound[v]; seen && old != fn {
			fn = nil
		}
		bound[v] = fn
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					var value ast.Expr
					if len(x.Rhs) == len(x.Lhs) {
						value = x.Rhs[i]
					}
					bind(fieldVar(info, lhs), value)
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						bind(v, x.Value)
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					bind(fieldVar(info, x.X), nil)
				}
			}
			return true
		})
	}
	return bound
}

// fieldVar returns the field e selects, or nil.
func fieldVar(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		v, _ := s.Obj().(*types.Var)
		return v
	}
	return nil
}

// reachable computes the set of nodes reachable from roots along edges
// whose kind satisfies follow.
func (g *callGraph) reachable(roots []*funcNode, follow func(callKind) bool) map[*funcNode]bool {
	seen := map[*funcNode]bool{}
	frontier := append([]*funcNode(nil), roots...)
	for _, r := range roots {
		seen[r] = true
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, e := range g.edges[n] {
			if follow(e.kind) && !seen[e.to] {
				seen[e.to] = true
				frontier = append(frontier, e.to)
			}
		}
	}
	return seen
}

// captures returns the variables a function literal captures from enclosing
// scopes: every *types.Var used in the literal's body (including nested
// literals) that is neither a struct field nor declared inside the literal.
func (g *callGraph) captures(lit *ast.FuncLit) []*types.Var {
	if vs, ok := g.captured[lit]; ok {
		return vs
	}
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := g.info.Uses[ident].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (params, locals)
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	g.captured[lit] = out
	return out
}

// inspectOwn walks only the node's own body, not descending into nested
// function literals (each literal is its own node).
func (n *funcNode) inspectOwn(f func(ast.Node) bool) {
	body := n.body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.lit {
			return false
		}
		return f(x)
	})
}

// ownerRoots returns the declaration nodes carrying the //abp:owner
// directive.
func (g *callGraph) ownerRoots() []*funcNode {
	var roots []*funcNode
	for _, n := range g.nodes {
		if n.decl != nil && hasDirective(n.decl.Doc, "//abp:owner") {
			roots = append(roots, n)
		}
	}
	return roots
}

// ownedNodes is the ownership-propagation rule of the owner analyzer:
// starting from //abp:owner declarations, ownership extends
// along static and defer edges (same goroutine) but never along go edges
// (a new goroutine is by definition not the single owner) and never to a
// literal that merely escapes as a value (no edge exists for those). A
// function some caller outside the closure also reaches — by any edge, or
// one inside it by a go edge — is not owned: it runs on that caller's
// goroutine too. Dropping it may drop its callees in turn, so the rule
// iterates to a fixed point.
func (g *callGraph) ownedNodes() map[*funcNode]bool {
	roots := g.ownerRoots()
	owned := g.reachable(roots, func(k callKind) bool { return k != callGo })
	root := map[*funcNode]bool{}
	for _, r := range roots {
		root[r] = true
	}
	for changed := true; changed; {
		changed = false
		for from, edges := range g.edges {
			for _, e := range edges {
				if owned[e.to] && !root[e.to] && (!owned[from] || e.kind == callGo) {
					delete(owned, e.to)
					changed = true
				}
			}
		}
	}
	return owned
}

// isCASShaped reports whether fn is a compare-and-swap-shaped or
// PushBottom-shaped call: a function whose single boolean result signals
// whether the operation took effect and must therefore be consulted.
func isCASShaped(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	name := fn.Name()
	if name != "PushBottom" && !strings.HasPrefix(name, "CompareAndSwap") {
		return false
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	return res.Len() == 1 && isBool(res.At(0).Type())
}

// isOnceDo reports whether fn is (*sync.Once).Do.
func isOnceDo(fn *types.Func) bool {
	return fn != nil && fn.Name() == "Do" && syncMethodRecv(fn) == "Once"
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}
