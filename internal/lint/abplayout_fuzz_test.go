package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// FuzzLayoutClassifier feeds arbitrary type declarations to abplayout's
// layout computation and asserts its contract: structLayout never panics
// on a struct whose fields are all sizeComputable, the result is
// deterministic, offsets are nondecreasing with each field placed after
// the previous one ends, and a full-line blank pad really isolates — fields on opposite sides of a >=64-byte pad never share a
// cache line. The declarations are typechecked hermetically, with the
// same harness FuzzOrderClassifier uses.
func FuzzLayoutClassifier(f *testing.F) {
	seeds := []string{
		"type S struct {\n\ta uint64\n\t_ [56]byte\n\tb uint64\n}",
		"type P struct {\n\ta uint64\n\t_ [64]byte\n\tb uint64\n}",
		"type T struct {\n\ta byte\n\tb uint64\n\tc [3]int32\n}",
		"type Inner struct{ x, y uint32 }\ntype Outer struct {\n\th Inner\n\tcells [7]Inner\n}",
		"type Z struct{}\ntype W struct {\n\tz Z\n\ta uint64\n\tzz [0]uint64\n\tb uint32\n}",
		"type G[T any] struct {\n\tval T\n\tmark uint64\n}",
		"type Str struct {\n\ts string\n\tv []uint64\n\tm map[int]int\n\tfn func()\n\tc chan int\n\ti interface{ M() }\n}",
		"type Big struct {\n\ta [129]byte\n\tb uint64\n\t_ [40]byte\n\tc complex128\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body string) {
		src := "package layoutfuzz\n\n" + body
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil || len(file.Imports) > 0 {
			// Not valid Go, or needs an importer this hermetic harness
			// does not wire up.
			return
		}
		conf := types.Config{Error: func(error) {}}
		pkg, _ := conf.Check("worksteal/fuzz/layout", fset, []*ast.File{file}, nil)
		if pkg == nil {
			return
		}

		scope := pkg.Scope()
		for _, objName := range scope.Names() {
			obj, isType := scope.Lookup(objName).(*types.TypeName)
			if !isType {
				continue
			}
			st, isStruct := obj.Type().Underlying().(*types.Struct)
			if !isStruct {
				continue
			}
			computable := true
			for i := 0; i < st.NumFields(); i++ {
				if !sizeComputable(st.Field(i).Type(), 0) {
					computable = false
					break
				}
			}
			if !computable {
				continue // the analyzer skips these structs; so does the fuzz
			}

			fields := structLayout(st) // must not panic
			again := structLayout(st)
			if len(fields) != st.NumFields() || len(again) != len(fields) {
				t.Fatalf("%s: %d fields laid out as %d/%d spans",
					objName, st.NumFields(), len(fields), len(again))
			}
			end := int64(0)
			for i, fld := range fields {
				if again[i].off != fld.off || again[i].size != fld.size || again[i].pad != fld.pad {
					t.Fatalf("%s field %d: nondeterministic layout (%d,%d,%v) then (%d,%d,%v)",
						objName, i, fld.off, fld.size, fld.pad,
						again[i].off, again[i].size, again[i].pad)
				}
				if fld.size < 0 {
					t.Fatalf("%s field %d: negative size %d", objName, i, fld.size)
				}
				if fld.off < end {
					t.Fatalf("%s field %d: offset %d overlaps previous end %d",
						objName, i, fld.off, end)
				}
				end = fld.off + fld.size
				if (fld.v.Name() == "_") != fld.pad {
					t.Fatalf("%s field %d: pad flag %v for name %q",
						objName, i, fld.pad, fld.v.Name())
				}
			}
			// A full-line blank pad always isolates: no field before it may
			// share a cache line with any field after it.
			for p, pad := range fields {
				if !pad.pad || pad.size < cacheLineSize {
					continue
				}
				for i := 0; i < p; i++ {
					for j := p + 1; j < len(fields); j++ {
						if fields[i].size == 0 || fields[j].size == 0 {
							continue
						}
						if linesOverlap(fields[i], fields[j]) {
							t.Fatalf("%s: fields %d and %d share a line across the %d-byte pad at field %d",
								objName, i, j, pad.size, p)
						}
					}
				}
			}
		}
	})
}
