package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Handshake machine-checks the store→load order the parking protocol's
// Dekker argument depends on (DESIGN.md §7, sched/lifecycle.go): a parker
// must PUBLISH its parked flag before it CHECKS for work, and a producer
// must PUSH its work before it CHECKS for parked workers. If either side
// reorders its two steps — or performs one of them with a plain,
// non-atomic access — the "whichever interleaving occurs, one side observes
// the other" case analysis collapses and a wakeup can be lost forever.
//
// The contract is declared per function with
//
//	//abp:handshake store=<name> load=<name>
//
// where each <name> matches, inside the annotated function's body:
//
//   - a sync/atomic operation on a struct field with that name, via wrapper
//     method (w.status.Store(s), p.idle.Load()) or function-style call
//     (atomic.StoreUint32(&s.f, 1)); or
//   - a call to a function or method with that name (PushBottom,
//     anyVisibleWork, signalWork, ...), for sides whose memory operation is
//     delegated to an audited callee.
//
// The directives are parsed and resolved once per suite run (the fact
// layer's handshake table, below); the matched operations are the carrier's
// entries in the access set plus its calls, ordered over its CFG. The
// analyzer reports: a declared store or load that matches nothing; a load
// that is not dominated by a store (some path checks before publishing);
// and any plain, non-atomic read or write of a named field inside the
// region (a single plain access voids sequential consistency). Operations in
// nested function literals run at unknown times and neither satisfy nor
// violate the ordering; annotate the literal's own context instead.
var Handshake = &Analyzer{
	Name: "handshake",
	Doc:  "enforces store-before-load (Dekker) ordering and all-atomic access inside //abp:handshake functions",
	Run:  runHandshake,
}

// A handshakeDecl is one well-formed directive, its operands resolved
// against the package: each of store= and load= either names declared
// functions (storeFns, loadFns: a delegated operation) or, when nothing in
// the package carries that name, a field the carrier itself accesses (or a
// cross-package callee).
type handshakeDecl struct {
	carrier           *funcNode
	store, load       string
	storeFns, loadFns []*funcNode
}

// A handshakeTable is the package's //abp:handshake directives, parsed and
// resolved once by the fact pass. handshake checks each declaration,
// abprace trusts pairs of carriers, and abporder holds every involved
// function's atomics to sc.
type handshakeTable struct {
	decls []*handshakeDecl
	// carriers are the functions carrying the directive, well-formed or
	// not; malformed maps a carrier to the text of its bad directives.
	carriers  map[*funcNode]bool
	malformed map[*funcNode][]string
	// involved are the carriers plus every function an operand names:
	// atomic accesses inside them are sc-justified — the declared
	// protocol is audited by the handshake analyzer.
	involved map[*funcNode]bool
}

// parseHandshakes builds the table from the doc comments of g's
// declarations.
func parseHandshakes(g *callGraph) *handshakeTable {
	t := &handshakeTable{
		carriers:  map[*funcNode]bool{},
		malformed: map[*funcNode][]string{},
		involved:  map[*funcNode]bool{},
	}
	byName := map[string][]*funcNode{}
	for _, n := range g.nodes {
		if n.decl != nil {
			byName[n.decl.Name.Name] = append(byName[n.decl.Name.Name], n)
		}
	}
	for _, n := range g.nodes {
		if n.decl == nil || n.decl.Doc == nil {
			continue
		}
		for _, c := range n.decl.Doc.List {
			rest, ok := strings.CutPrefix(c.Text, "//abp:handshake")
			if !ok || rest != "" && rest[0] != ' ' {
				continue
			}
			t.carriers[n], t.involved[n] = true, true
			d := &handshakeDecl{carrier: n}
			fields := strings.Fields(rest)
			for _, f := range fields {
				if v, ok := strings.CutPrefix(f, "store="); ok {
					d.store = v
				} else if v, ok := strings.CutPrefix(f, "load="); ok {
					d.load = v
				}
			}
			if d.store == "" || d.load == "" || len(fields) != 2 {
				t.malformed[n] = append(t.malformed[n], strings.TrimSpace(c.Text))
				continue
			}
			d.storeFns, d.loadFns = byName[d.store], byName[d.load]
			for _, fns := range [][]*funcNode{d.storeFns, d.loadFns} {
				for _, fn := range fns {
					t.involved[fn] = true
				}
			}
			t.decls = append(t.decls, d)
		}
	}
	return t
}

func runHandshake(pass *Pass) error {
	f := pass.facts
	for n, bad := range f.handshakes.malformed {
		for _, text := range bad {
			pass.Reportf(n.decl.Pos(),
				"malformed //abp:handshake directive %q: want //abp:handshake store=<name> load=<name>", text)
		}
	}
	for _, d := range f.handshakes.decls {
		fn := d.carrier
		if fn.body() == nil {
			continue
		}
		cfg, name := f.cfg(fn), fn.name()
		stores := f.handshakeOps(fn, d.store, true)
		loads := f.handshakeOps(fn, d.load, false)
		if len(stores) == 0 {
			pass.Reportf(fn.decl.Pos(),
				"//abp:handshake store=%s matches no store or call in %s: the publish side of the handshake is missing", d.store, name)
		}
		if len(loads) == 0 {
			pass.Reportf(fn.decl.Pos(),
				"//abp:handshake load=%s matches no load or call in %s: the check side of the handshake is missing", d.load, name)
		}
		for _, op := range append(append([]handshakeOp(nil), stores...), loads...) {
			if op.plain {
				pass.Reportf(op.pos,
					"plain (non-atomic) access to handshake variable %s in %s: every access must be a seq-cst sync/atomic operation for the Dekker argument to hold", op.name, name)
			}
		}
		if len(stores) == 0 {
			continue
		}
		for _, l := range loads {
			if !storeDominatesLoad(cfg, stores, l) {
				pass.Reportf(l.pos,
					"handshake load of %s is not dominated by the store of %s in %s: on some path the check runs before the publish, so a concurrent peer can be missed (Dekker order, DESIGN.md §7)",
					d.load, d.store, name)
			}
		}
	}
	return nil
}

// A handshakeOp is one matched operation: the block node it lives in (for
// dominance queries), its exact position, and whether it was a plain
// non-atomic access.
type handshakeOp struct {
	node  ast.Node // enclosing CFG block node
	pos   token.Pos
	name  string
	plain bool
}

func storeDominatesLoad(cfg *funcCFG, stores []handshakeOp, l handshakeOp) bool {
	for _, s := range stores {
		if s.node == l.node {
			if s.pos < l.pos {
				return true
			}
			continue
		}
		if cfg.dominates(s.node, l.node) {
			return true
		}
	}
	return false
}

// handshakeOps returns the operations in fn's own body matching name, in
// position order: the collected accesses of a field or package variable of
// that name — atomic operations of the right side (isStore selects
// Store/Swap/Add/Or/And/CompareAndSwap, else Load), and plain writes or
// reads, which count as operations (so the ordering is still checked) but
// are flagged — plus calls to a function or method of that name, which
// match either side.
func (f *pkgFacts) handshakeOps(fn *funcNode, name string, isStore bool) []handshakeOp {
	var ops []handshakeOp
	for _, acc := range f.accessesNamed(fn, name) {
		switch {
		case acc.atomic && acc.write == isStore:
			ops = append(ops, handshakeOp{node: acc.node, pos: acc.call.Pos(), name: name})
		case !acc.atomic && acc.write == isStore:
			ops = append(ops, handshakeOp{node: acc.node, pos: acc.pos, name: name, plain: true})
		}
	}
	cfg := f.cfg(fn)
	fn.inspectOwn(func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeFunc(f.info, call); callee != nil && callee.Name() == name {
				ops = append(ops, handshakeOp{node: cfg.blockNodeAt(call.Pos()), pos: call.Pos(), name: name})
			}
		}
		return true
	})
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	return ops
}

// accessesNamed returns the accesses in fn's own body of variables called
// name: how a handshake operand that names no function picks out the
// protocol's words.
func (f *pkgFacts) accessesNamed(fn *funcNode, name string) []*raceAccess {
	var out []*raceAccess
	for _, v := range f.vars {
		if v.Name() != name {
			continue
		}
		for _, acc := range f.accesses[v] {
			if acc.fn == fn {
				out = append(out, acc)
			}
		}
	}
	return out
}
