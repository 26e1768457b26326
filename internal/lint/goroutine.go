package lint

import (
	"go/ast"
	"strings"
)

// Goroutine-context inference: the layer abprace adds on top of the call
// graph. Where ownedNodes answers "which functions run in the audited
// owner context", this pass answers the more general question "which
// goroutine ROOTS can be executing a given function" — the prerequisite
// for any cross-goroutine ordering argument. A root is either
//
//   - the target of a `go` statement (one root per statically resolved
//     target, covering every launch site of that target), or
//   - the synthetic EXTERNAL root: exported functions, main, and init are
//     callable from outside the package, so everything they reach
//     statically runs on whatever goroutine the external caller supplies.
//
// Context propagates along static and defer edges (same goroutine) and
// stops at go edges (the callee starts a new root). A function literal
// that only escapes as a value has no invocation edge and therefore NO
// context: its eventual caller is unknown, and the analyzer deliberately
// stays silent about it rather than invent one (documented in DESIGN.md
// as an under-approximation).

// A gLaunch is one `go` statement starting a root, with the function it
// appears in.
type gLaunch struct {
	fn   *funcNode
	stmt *ast.GoStmt
}

// A gRoot is one goroutine context.
type gRoot struct {
	fn       *funcNode // entry function of the goroutine; nil for external
	external bool
	sites    []gLaunch // every `go` statement launching this root
	// multi marks roots that may run as two or more concurrent instances:
	// two launch sites, or a launch site on a CFG cycle.
	multi bool
	// entries are the propagation seeds; parent records the BFS tree so
	// diagnostics can print how a root reaches a function.
	entries []*funcNode
	parent  map[*funcNode]*funcNode
}

// name renders the root for diagnostics.
func (r *gRoot) name() string {
	if r.external {
		return "external caller"
	}
	return "goroutine " + r.fn.name()
}

// launchedIn names the functions containing the root's go statements.
func (r *gRoot) launchedIn() string {
	seen := map[string]bool{}
	var names []string
	for _, l := range r.sites {
		n := l.fn.name()
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	return strings.Join(names, ", ")
}

// chain renders the call path by which this root reaches n, from the
// root's entry down to n.
func (r *gRoot) chain(n *funcNode) string {
	var parts []string
	for cur := n; cur != nil; cur = r.parent[cur] {
		parts = append(parts, cur.name())
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " -> ")
}

// concurrent reports whether an access on root r can run concurrently
// with an access on root o. Distinct roots are always concurrent. A go
// root is self-concurrent when it may have two live instances. The
// external root is self-concurrent only under the adversarial rules: the
// package's documented usage contracts serialize external calls — the one
// assumption the analyzers take on faith (DESIGN.md §8). abprace keeps it
// because it reports races — dropping it would flood every exported entry
// point with findings. abporder must drop it when PROVING an atomic
// unnecessary ("no concurrent access" established only by assuming callers
// serialize is not a license to remove the synchronization those callers
// may in fact be relying on), and abpwait when proving a wake can arrive.
func (r *gRoot) concurrent(o *gRoot, adversarial bool) bool {
	if r != o {
		return true
	}
	return r.multi || adversarial && r.external
}

// A goroutineSet is the result of inference: the roots, and for each
// function the roots that can be executing it.
type goroutineSet struct {
	roots []*gRoot
	ctx   map[*funcNode][]*gRoot
}

// inferGoroutines computes goroutine contexts over a call graph. cfgOf
// supplies (cached) CFGs for launch-site multiplicity queries.
func inferGoroutines(g *callGraph, cfgOf func(*funcNode) *funcCFG) *goroutineSet {
	s := &goroutineSet{ctx: map[*funcNode][]*gRoot{}}

	ext := &gRoot{external: true}
	for _, n := range g.nodes {
		if n.decl == nil {
			continue
		}
		name := n.decl.Name.Name
		if ast.IsExported(name) || name == "main" || name == "init" {
			ext.entries = append(ext.entries, n)
		}
	}
	s.roots = append(s.roots, ext)

	// One root per statically resolved go target, in deterministic node
	// order, accumulating every launch site.
	byTarget := map[*funcNode]*gRoot{}
	for _, from := range g.nodes {
		for _, e := range g.edges[from] {
			if e.kind != callGo {
				continue
			}
			stmt, _ := e.site.(*ast.GoStmt)
			r := byTarget[e.to]
			if r == nil {
				r = &gRoot{fn: e.to, entries: []*funcNode{e.to}}
				byTarget[e.to] = r
				s.roots = append(s.roots, r)
			}
			r.sites = append(r.sites, gLaunch{fn: from, stmt: stmt})
		}
	}
	for _, r := range s.roots[1:] {
		r.multi = len(r.sites) > 1
		for _, l := range r.sites {
			if l.stmt == nil {
				continue
			}
			if cfgOf(l.fn).onCycle(l.stmt) {
				r.multi = true // launched on a loop
			}
		}
	}

	for _, r := range s.roots {
		s.propagate(g, r)
	}
	return s
}

// propagate runs BFS from the root's entries along non-go edges,
// recording the first-discovery parent for provenance chains.
func (s *goroutineSet) propagate(g *callGraph, r *gRoot) {
	r.parent = map[*funcNode]*funcNode{}
	seen := map[*funcNode]bool{}
	var queue []*funcNode
	for _, e := range r.entries {
		if !seen[e] {
			seen[e] = true
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		s.ctx[n] = append(s.ctx[n], r)
		for _, e := range g.edges[n] {
			if e.kind == callGo || seen[e.to] {
				continue
			}
			seen[e.to] = true
			r.parent[e.to] = n
			queue = append(queue, e.to)
		}
	}
}
