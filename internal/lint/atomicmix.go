package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicMix enforces the all-atomic access discipline on shared struct
// fields. The parking handshake (sched/lifecycle.go) and the deque's
// correctness argument both lean on Go atomics' sequential consistency; a
// single plain access to a field that is elsewhere touched through
// sync/atomic silently forfeits that guarantee. The analyzer reports
//
//   - any struct field passed by address to a sync/atomic function while
//     also being read or written plainly somewhere in the package, and
//   - any raw integer/pointer field manipulated through the function-style
//     API (atomic.AddInt64(&s.f, 1)) at all: the codebase standardizes on
//     the atomic.Int64-style wrapper types, which make plain access a
//     compile error instead of a latent race.
//
// Composite-literal keys are not treated as plain accesses (zero-value
// construction precedes sharing), and access through the wrapper types is
// by definition atomic, so idiomatic code is never flagged.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "flags struct fields accessed both atomically and plainly, and raw fields used with function-style atomics instead of atomic wrapper types",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	// The atomicx package IS the wrapper layer: its method bodies are the
	// one place function-style atomics on raw fields are the point (each
	// wrapper routes every access of its word through them). Exempt it
	// rather than litter it with ignores.
	if pass.Pkg.Name() == "atomicx" {
		return nil
	}
	type fieldUse struct {
		pos token.Pos // first atomic use, for the cross-reference
		fn  string    // the sync/atomic function involved
	}
	atomicFields := map[*types.Var]fieldUse{}
	consumed := map[ast.Node]bool{} // selectors that ARE the atomic operand

	// Pass 1: find &s.f operands of sync/atomic function calls.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if !isAtomicFunc(fn) || len(call.Args) == 0 {
				return true
			}
			switch {
			case strings.HasPrefix(fn.Name(), "Load"),
				strings.HasPrefix(fn.Name(), "Store"),
				strings.HasPrefix(fn.Name(), "Add"),
				strings.HasPrefix(fn.Name(), "Swap"),
				strings.HasPrefix(fn.Name(), "CompareAndSwap"),
				strings.HasPrefix(fn.Name(), "And"),
				strings.HasPrefix(fn.Name(), "Or"):
			default:
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pass.TypesInfo.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			field := s.Obj().(*types.Var)
			consumed[sel] = true
			if _, seen := atomicFields[field]; !seen {
				atomicFields[field] = fieldUse{pos: call.Pos(), fn: fn.Name()}
			}
			pass.Reportf(call.Pos(),
				"field %s is manipulated with atomic.%s; use a sync/atomic wrapper type (atomic.Int64 et al.) so plain access is impossible",
				field.Name(), fn.Name())
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: any other selection of those fields is a plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || consumed[sel] {
				return true
			}
			s, ok := pass.TypesInfo.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			field, ok := s.Obj().(*types.Var)
			if !ok {
				return true
			}
			if use, isAtomic := atomicFields[field]; isAtomic {
				pass.Reportf(sel.Pos(),
					"plain access to field %s, which is accessed atomically at %s; every access must go through sync/atomic",
					field.Name(), pass.Fset.Position(use.pos))
			}
			return true
		})
	}
	return nil
}
