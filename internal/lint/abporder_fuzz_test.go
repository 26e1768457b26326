package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// FuzzOrderClassifier feeds arbitrary type declarations to abporder's
// discipline classifier and asserts its contract: declDiscipline never
// panics, a negative answer is fully zero, a positive answer names one of
// the three disciplines with a wrapper name matching it, the result is
// deterministic, and one level of slice/array wrapping is transparent
// (a []atomicx.SCUint64 field declares the same discipline as the scalar).
// The declarations are checked twice — once as a package named atomicx,
// once under the import path sync/atomic — because those are exactly the
// two namespaces the classifier trusts: in the first, classification is
// driven by the SC/Publish name prefix; in the second, every named
// type must classify as the raw discipline regardless of its name.
func FuzzOrderClassifier(f *testing.F) {
	seeds := []string{
		"type SCUint64 struct{ v uint64 }\ntype S struct {\n\ta SCUint64\n\tb []SCUint64\n\tc [4]SCUint64\n}",
		"type PublishPointer[T any] struct{ p *T }\ntype W struct{ h PublishPointer[int] }",
		"type PublishBool struct{ b bool }\ntype X struct{ f PublishBool }",
		"type SC struct{}\ntype Publish struct{}\ntype T struct {\n\ta SC\n\tb Publish\n}",
		"type SCInt32 int32\nvar Top SCInt32\nvar Ring []SCInt32",
		"type scLower struct{}\ntype T struct{ f scLower }",
		"type SCCell[T any] struct{ v T }\ntype Q struct{ cells []SCCell[*int] }",
		"type Deep struct{ m [][]SCBool }\ntype SCBool struct{ b bool }",
		"type A = SCUint32\ntype SCUint32 struct{ v uint32 }\ntype S struct{ f A }",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body string) {
		for _, ns := range []struct {
			pkgName, pkgPath string
			rawOnly          bool
		}{
			{"atomicx", "worksteal/fuzz/atomicx", false},
			{"atomic", "sync/atomic", true},
		} {
			src := "package " + ns.pkgName + "\n\n" + body
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
			if err != nil || len(file.Imports) > 0 {
				// Not valid Go, or needs an importer this hermetic
				// harness does not wire up.
				continue
			}
			conf := types.Config{Error: func(error) {}}
			pkg, _ := conf.Check(ns.pkgPath, fset, []*ast.File{file}, nil)
			if pkg == nil {
				continue
			}

			assertDisc := func(tt types.Type) {
				disc, name, ok := declDiscipline(tt) // must not panic
				if !ok {
					if disc != "" || name != "" {
						t.Fatalf("negative answer not zero: (%q, %q, false) for %v", disc, name, tt)
					}
					return
				}
				wantPrefix := map[string]string{
					"raw":     "atomic.",
					"sc":      "atomicx.SC",
					"publish": "atomicx.Publish",
				}[disc]
				if wantPrefix == "" {
					t.Fatalf("unknown discipline %q for %v", disc, tt)
				}
				if !strings.HasPrefix(name, wantPrefix) {
					t.Fatalf("discipline %q with mismatched wrapper name %q for %v", disc, name, tt)
				}
				if ns.rawOnly && disc != "raw" {
					t.Fatalf("type from %s classified %q, want raw: %v", ns.pkgPath, disc, tt)
				}
				d2, n2, ok2 := declDiscipline(tt)
				if d2 != disc || n2 != name || !ok2 {
					t.Fatalf("nondeterministic: (%q,%q) then (%q,%q) for %v", disc, name, d2, n2, tt)
				}
				// One level of slice/array wrapping is transparent for a
				// directly named wrapper type.
				if _, isNamed := tt.(*types.Named); isNamed {
					for _, wrapped := range []types.Type{
						types.NewSlice(tt),
						types.NewArray(tt, 8),
					} {
						dw, nw, okw := declDiscipline(wrapped)
						if dw != disc || nw != name || okw != ok {
							t.Fatalf("wrap changed answer: (%q,%q,%v) vs (%q,%q,%v) for %v",
								disc, name, ok, dw, nw, okw, wrapped)
						}
					}
				}
			}

			scope := pkg.Scope()
			for _, objName := range scope.Names() {
				switch obj := scope.Lookup(objName).(type) {
				case *types.TypeName:
					assertDisc(obj.Type())
					if st, isStruct := obj.Type().Underlying().(*types.Struct); isStruct {
						for i := 0; i < st.NumFields(); i++ {
							assertDisc(st.Field(i).Type())
						}
					}
				case *types.Var:
					assertDisc(obj.Type())
				}
			}
		}
	})
}
