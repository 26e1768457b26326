package lint

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// accessFingerprint renders the shared access set — keys, key order, and
// every access in order — so a test can tell whether anything re-keyed,
// re-sorted or appended to it.
func accessFingerprint(pkg *Package, f *pkgFacts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d vars, %d keys, %d fresh\n", len(f.vars), len(f.accesses), len(f.fresh))
	for _, v := range f.vars {
		fmt.Fprintf(&b, "%s@%v origin=%v\n", v.Name(), pkg.Fset.Position(v.Pos()), v == v.Origin())
		for _, acc := range f.accesses[v] {
			fmt.Fprintf(&b, "\t%v %s %q in %s key=%v\n",
				pkg.Fset.Position(acc.pos), acc.kind(), acc.op, acc.fn.name(), acc.v == v)
		}
	}
	return b.String()
}

// TestFactsOrderIndependent pins the contract the fact layer rests on: the
// analyzers only read it. Over every fixture package, the suite's findings
// are identical whether the analyzers run in All() order, in reverse, or
// one at a time over fresh facts, and the access set is byte-for-byte what
// the fact pass built after all ten have run over it.
func TestFactsOrderIndependent(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no fixture directories: %v", err)
	}
	all := All()
	reversed := make([]*Analyzer, len(all))
	for i, a := range all {
		reversed[len(all)-1-i] = a
	}
	render := func(pkg *Package, order []*Analyzer, results [][]Diagnostic) map[string][]string {
		out := map[string][]string{}
		for i, a := range order {
			out[a.Name] = []string{} // an analyzer that ran and found nothing
			for _, d := range results[i] {
				out[a.Name] = append(out[a.Name], fmt.Sprintf("%v: %s", pkg.Fset.Position(d.Pos), d.Message))
			}
		}
		return out
	}
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			pkgs, err := NewLoader().Load(dir, ".")
			if err != nil || len(pkgs) != 1 {
				t.Fatalf("loading %s: %d packages, %v", dir, len(pkgs), err)
			}
			pkg := pkgs[0]
			suite := func(order []*Analyzer) map[string][]string {
				results, err := RunSuite(order, pkg, CollectIgnores(pkg))
				if err != nil {
					t.Fatal(err)
				}
				return render(pkg, order, results)
			}
			forward := suite(all)
			if backward := suite(reversed); !reflect.DeepEqual(forward, backward) {
				t.Errorf("findings depend on analyzer order:\nAll():    %v\nreversed: %v", forward, backward)
			}
			alone := map[string][]string{}
			for _, a := range all {
				alone[a.Name] = suite([]*Analyzer{a})[a.Name]
			}
			if !reflect.DeepEqual(forward, alone) {
				t.Errorf("findings differ between one shared fact pass and ten fresh ones:\nshared: %v\nfresh:  %v", forward, alone)
			}

			facts := buildFacts(pkg.Files, pkg.Types, pkg.Info)
			before := accessFingerprint(pkg, facts)
			ignores := CollectIgnores(pkg)
			for _, a := range all {
				if _, err := runOne(a, pkg, facts, ignores); err != nil {
					t.Fatal(err)
				}
				if after := accessFingerprint(pkg, facts); after != before {
					t.Fatalf("%s changed the shared access set:\n--- built ---\n%s--- after ---\n%s", a.Name, before, after)
				}
			}
		})
	}
}
