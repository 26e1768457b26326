package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// abporder is the memory-ordering necessity analyzer: for every atomic
// variable in a package it classifies the minimal ordering discipline the
// code's happens-before structure actually requires — plain (no concurrent
// conflicting access survives the proof), publish (a release/acquire pair
// suffices), or sc (the variable participates in a CAS arbitration or a
// Dekker store→load handshake, the two shapes the paper's §3.2/Figure 5
// proof leans on) — and cross-checks that classification against the
// discipline the declaration states (the atomicx wrapper types; raw
// sync/atomic counts as an undeclared sc). It reads the fact
// layer (facts.go) — goroutine contexts, the access set, the sync facts —
// and runs the happens-before engine it shares with abprace.
//
// The two directions are deliberately asymmetric:
//
//   - Downgrades (over-synchronization findings) must be PROOFS, so they
//     run under adversarial assumptions: the external root is treated as
//     self-concurrent (concurrentAdversarial — a plain-safety argument
//     resting on "callers serialize" is not a license to strip the
//     synchronization those callers may rely on), the variable's own
//     release/acquire edges are excluded (using an atomic to prove itself
//     unnecessary is circular), trusted-handshake suppression is excluded
//     (handshake accesses are the opposite of plain-safe), and any
//     cross-variable store→load sequence (the Dekker shape, detected
//     generously) blocks an sc→publish demotion.
//   - Upgrades (under-synchronization findings) fire only on hard
//     evidence: an arbitration RMW (CompareAndSwap/Swap anywhere, or an
//     Add whose result is consumed — a blind counter increment is
//     commutative and needs no ordering decision) or participation in a
//     declared //abp:handshake protocol.
//
// Per-variable classification is skipped entirely when any collected
// access of the variable sits in a function with no inferred goroutine
// context (an escaping literal with no static invocation edge): such a
// function is a potential hidden writer the pair analysis cannot see.
//
// Findings are suppressed with a justified //abp:order-ignore comment on
// or above the flagged line. abporder inherits abprace's deliberate
// over-approximations (DESIGN.md §8 lists both).

// AbpOrder reports atomic variables whose declared ordering discipline is
// stronger than the proven requirement (over-synchronized) or weaker than
// the evidence demands (under-synchronized), and loop-invariant atomic
// loads.
var AbpOrder = &Analyzer{
	Name: "abporder",
	Doc:  "classifies the minimal memory-ordering discipline (plain/publish/sc) each atomic variable needs and reports declaration-vs-necessity mismatches and loop-invariant atomic loads",
	Run:  runAbpOrder,
}

// An orderDecl is one atomic variable declaration in scope.
type orderDecl struct {
	pos  token.Pos
	disc string // "sc", "publish" (atomicx) or "raw" (sync/atomic)
	typ  string // rendered type name for messages
}

type orderAnalysis struct {
	*pkgFacts
	pass     *Pass
	declared map[*types.Var]*orderDecl
	// dekker marks variables whose atomic store can be followed, in the
	// same function, by an atomic load of a different variable: the
	// store→load fence shape that only sequential consistency provides.
	dekker map[*types.Var]bool
}

func runAbpOrder(pass *Pass) error {
	o := &orderAnalysis{
		pkgFacts: pass.facts,
		pass:     pass,
		declared: map[*types.Var]*orderDecl{},
		dekker:   map[*types.Var]bool{},
	}
	o.findDecls()
	o.findDekkerStores()
	o.checkVars()
	o.checkSites()
	return nil
}

// --- scope discovery ---

// declDiscipline classifies a declared type as an ordering discipline,
// unwrapping one level of slice/array (a field []atomicx.SCPointer[T]
// declares its elements' discipline).
func declDiscipline(t types.Type) (disc, name string, ok bool) {
	switch u := t.(type) {
	case *types.Slice:
		t = u.Elem()
	case *types.Array:
		t = u.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg().Path() == "sync/atomic" {
		return "raw", "atomic." + obj.Name(), true
	}
	if obj.Pkg().Name() == "atomicx" {
		switch {
		case strings.HasPrefix(obj.Name(), "SC"):
			return "sc", "atomicx." + obj.Name(), true
		case strings.HasPrefix(obj.Name(), "Publish"):
			return "publish", "atomicx." + obj.Name(), true
		}
	}
	return "", "", false
}

// findDecls indexes every struct field and package-level variable whose
// declared type is a sync/atomic or atomicx wrapper.
func (o *orderAnalysis) findDecls() {
	info := o.info
	record := func(name *ast.Ident) {
		v, ok := info.Defs[name].(*types.Var)
		if !ok || v == nil {
			return
		}
		if disc, typ, ok := declDiscipline(v.Type()); ok {
			o.declared[v] = &orderDecl{pos: name.Pos(), disc: disc, typ: typ}
		}
	}
	for _, f := range o.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					for _, name := range field.Names {
						record(name)
					}
				}
			case *ast.FuncDecl:
				return false // package-level vars and type decls only
			}
			return true
		})
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						record(name)
					}
				}
			}
		}
	}
}

// findDekkerStores marks every variable atomically stored at a point from
// which an atomic load of a DIFFERENT variable is reachable in the same
// function: the store→load sequence whose ordering is exactly what
// sequential consistency adds over release/acquire. The test is
// deliberately generous (any cross-variable sequence, no symmetry
// requirement) because it only ever BLOCKS a demotion — the park/steal
// handshakes span function and package boundaries the per-function fact
// extractor cannot follow, and missing one would demote a load-bearing
// fence.
func (o *orderAnalysis) findDekkerStores() {
	for fn, facts := range o.sync {
		cfg := o.cfg(fn)
		for _, rel := range facts.atomicW {
			if rel.node == nil || rel.v == nil {
				continue
			}
			for _, acq := range facts.atomicR {
				if acq.v == nil || acq.v.Origin() == rel.v.Origin() || acq.node == nil {
					continue
				}
				if rel.node == acq.node || cfg.canReach(rel.node, acq.node) {
					o.dekker[rel.v.Origin()] = true
					break
				}
			}
		}
	}
}

// --- per-variable classification ---

func (o *orderAnalysis) checkVars() {
	for _, v := range o.vars {
		accs := o.accesses[v]
		decl := o.declared[v]
		hasAtomic := false
		for _, acc := range accs {
			if acc.atomic {
				hasAtomic = true
				break
			}
		}
		if decl == nil {
			if !hasAtomic {
				continue // a plain variable: abprace's territory
			}
			// Function-style atomics on a raw integer field: an
			// undeclared sc discipline, checkable all the same.
			decl = &orderDecl{pos: v.Pos(), disc: "raw", typ: types.TypeString(v.Type(), func(p *types.Package) string { return p.Name() })}
		}
		if v.Pkg() != o.pkg {
			continue // another package's declaration is its own analyzer run's job
		}

		desc := accs[0].desc
		scEvidence := o.scEvidence(accs)

		// Under-synchronization: hard evidence the declaration is too
		// weak. Hidden writers only add requirements, so this check
		// needs no mention-guard.
		if decl.disc == "publish" && scEvidence != "" {
			o.pass.Reportf(decl.pos,
				"%s declares %s ordering (%s) but %s: sc discipline is required (suppress with //abp:order-ignore <justification>)",
				desc, decl.disc, decl.typ, scEvidence)
			continue
		}

		// Downgrade proofs from here on: skip any variable with an
		// access in a context-less function (a potential hidden writer
		// the pair analysis cannot see) or visible outside the package.
		// Both downgrades also need the absence of sc evidence.
		if v.Exported() || o.mentionGuarded(accs) || scEvidence != "" || o.dekker[v] {
			continue
		}
		// Plain is proven when EVERY conflicting pair (atomicity of the ops
		// themselves is what is on trial, so atomic-atomic pairs are not
		// exempt) is ordered under the adversarial rules.
		if x, _, _, _ := o.unorderedPair(accs, true); x != nil {
			if decl.disc == "sc" {
				o.pass.Reportf(decl.pos,
					"%s declares sc ordering (%s) but participates in no CAS arbitration, consumed-result RMW, store→load sequence, or declared handshake: publish (release/acquire) discipline suffices (suppress with //abp:order-ignore <justification>)",
					desc, decl.typ)
			}
		} else if decl.disc == "raw" {
			o.pass.Reportf(decl.pos,
				"%s is accessed through sync/atomic but every conflicting access pair is ordered by happens-before edges even under adversarial caller concurrency: plain access suffices (suppress with //abp:order-ignore <justification>)",
				desc)
		} else {
			o.pass.Reportf(decl.pos,
				"%s declares %s ordering (%s) but every conflicting access pair is ordered by happens-before edges even under adversarial caller concurrency: plain discipline suffices (suppress with //abp:order-ignore <justification>)",
				desc, decl.disc, decl.typ)
		}
	}
}

// scEvidence returns a human-readable reason the variable needs sc
// discipline, or "" when no hard evidence exists.
func (o *orderAnalysis) scEvidence(accs []*raceAccess) string {
	for _, acc := range accs {
		if strings.HasPrefix(acc.op, "CompareAndSwap") || strings.HasPrefix(acc.op, "Swap") {
			return fmt.Sprintf("is arbitrated by %s", acc.op)
		}
	}
	// "pending.Add(-1) == 0" is an arbitration (exactly one caller
	// observes zero and acts), unlike a blind counter increment.
	for _, acc := range accs {
		if acc.atomic && acc.used && strings.HasPrefix(acc.op, "Add") {
			return "an atomic Add's result is consumed (an arbitration, not a blind increment)"
		}
	}
	for _, acc := range accs {
		if o.handshakes.involved[acc.fn] {
			return fmt.Sprintf("participates in the //abp:handshake protocol through %s", acc.fn.name())
		}
	}
	return ""
}

// mentionGuarded reports whether any access of the variable sits in a
// function with no inferred goroutine context.
func (o *orderAnalysis) mentionGuarded(accs []*raceAccess) bool {
	for _, acc := range accs {
		if len(o.gs.ctx[acc.fn]) == 0 {
			return true
		}
	}
	return false
}

// --- per-site checks ---

func (o *orderAnalysis) checkSites() {
	for _, v := range o.vars {
		if v.Pkg() != o.pkg || v.Exported() || o.anyWrite(v) {
			continue
		}
		// Loop-invariant atomic load: an atomic Load inside a CFG cycle
		// of a variable nothing in the package ever writes (hidden
		// writers included — context-less functions were collected). The
		// load's value cannot change across iterations; hoist it.
		for _, acc := range o.accesses[v] {
			if acc.atomic && strings.HasPrefix(acc.op, "Load") && o.cfg(acc.fn).onCycle(acc.node) {
				o.pass.Reportf(acc.pos,
					"loop-invariant atomic load of %s: nothing in the package writes it, so the load can be hoisted out of the loop (suppress with //abp:order-ignore <justification>)",
					acc.desc)
			}
		}
	}
}

func (o *orderAnalysis) anyWrite(v *types.Var) bool {
	for _, acc := range o.accesses[v] {
		if acc.write {
			return true
		}
	}
	return false
}
