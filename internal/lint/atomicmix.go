package lint

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
	f := pass.facts
	for _, v := range f.vars {
		if !v.IsField() {
			continue
		}
		// Function-style atomics on the field itself (&s.f, not an
		// element of it); the first is the cross-reference.
		var first *raceAccess
		for _, acc := range f.accesses[v] {
			if !acc.fnStyle {
				continue
			}
			if first == nil {
				first = acc
			}
			pass.Reportf(acc.call.Pos(),
				"field %s is manipulated with atomic.%s; use a sync/atomic wrapper type (atomic.Int64 et al.) so plain access is impossible",
				v.Name(), acc.op)
		}
		if first == nil {
			continue
		}
		// Any other selection of the field is a plain access, unshared
		// fresh objects included: the contract is syntactic.
		plain := func(acc *raceAccess) {
			if acc.v == v && !acc.atomic {
				pass.Reportf(acc.pos,
					"plain access to field %s, which is accessed atomically at %s; every access must go through sync/atomic",
					v.Name(), pass.Fset.Position(first.call.Pos()))
			}
		}
		for _, acc := range f.accesses[v] {
			plain(acc)
		}
		for _, acc := range f.fresh {
			plain(acc)
		}
	}
	return nil
}
