package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// FuzzWaitGraph feeds arbitrary goroutine/channel programs to abpwait's
// wait/signal graph builder and asserts its contract: the fact pass,
// collectWaits and
// the five report passes never panic, the graph and the findings are
// deterministic (two builds serialize identically), every collected site
// is well-formed (attributed to a function node, with a registered node
// and a known kind/op), and a select carrying a default clause is never
// collected as a blocking wait — it is a token deposit or a poll by
// definition. Programs are typechecked hermetically with the same harness
// the other lint fuzz targets use, so import-bearing inputs (time, sync)
// are skipped; the channel/select/go-statement machinery is the
// deterministic core this fuzz pins.
func FuzzWaitGraph(f *testing.F) {
	seeds := []string{
		// Naked wait: a field channel nobody signals, on a launched root.
		"type W struct{ ch chan int }\nfunc (w *W) wait() { <-w.ch }\nfunc Start(w *W) { go w.wait() }",
		// Released wait: close on a concurrent root.
		"type W struct{ ch chan int }\nfunc (w *W) wait() { <-w.ch }\nfunc (w *W) fire() { close(w.ch) }\nfunc Start(w *W) {\n\tgo w.wait()\n\tgo w.fire()\n}",
		// Select with default: never a blocking wait, send still a signal.
		"type P struct{ tok chan struct{} }\nfunc (p *P) deposit() {\n\tselect {\n\tcase p.tok <- struct{}{}:\n\tdefault:\n\t}\n}",
		// Blocking select with and without an escape-named case.
		"type L struct {\n\tjobs chan int\n\tquitCh chan struct{}\n}\nfunc (l *L) run() {\n\tfor {\n\t\tselect {\n\t\tcase <-l.jobs:\n\t\tcase <-l.quitCh:\n\t\t\treturn\n\t\t}\n\t}\n}\nfunc (l *L) bad() {\n\tselect {\n\tcase <-l.jobs:\n\t}\n}\nfunc Start(l *L) {\n\tgo l.run()\n\tgo l.bad()\n}",
		// Wait cycle: each root's release signal sits behind its own wait.
		"type C struct{ a, b chan int }\nfunc (c *C) left() {\n\t<-c.a\n\tc.b <- 1\n}\nfunc (c *C) right() {\n\t<-c.b\n\tc.a <- 1\n}\nfunc Start(c *C) {\n\tgo c.left()\n\tgo c.right()\n}",
		// Range over a channel, closed elsewhere; plus a local alias.
		"type F struct{ src chan int }\nfunc (f *F) drain() {\n\tfor range f.src {\n\t}\n}\nfunc (f *F) alias() {\n\tch := f.src\n\t<-ch\n}\nfunc (f *F) finish() { close(f.src) }\nfunc Start(f *F) {\n\tgo f.drain()\n\tgo f.alias()\n\tgo f.finish()\n}",
		// Escaping literal: waits silent, signals conservatively present.
		"type H struct{ ev chan int }\nfunc Make(h *H) func() {\n\treturn func() { <-h.ev }\n}\nfunc Hook(h *H) func() {\n\treturn func() { h.ev <- 1 }\n}",
		// Defer close behind a wait, nested launches, send in select case.
		"type D struct {\n\tgate chan int\n\tout chan int\n}\nfunc (d *D) run() {\n\tdefer close(d.out)\n\t<-d.gate\n}\nfunc (d *D) pump() {\n\tselect {\n\tcase d.gate <- 1:\n\tcase <-d.out:\n\t}\n}\nfunc Start(d *D) {\n\tgo d.run()\n\tgo func() {\n\t\td.pump()\n\t}()\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body string) {
		src := "package waitfuzz\n\n" + body
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil || len(file.Imports) > 0 {
			// Not valid Go, or needs an importer this hermetic harness
			// does not wire up.
			return
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Instances:  map[*ast.Ident]types.Instance{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Error: func(error) {}}
		pkg, _ := conf.Check("worksteal/fuzz/wait", fset, []*ast.File{file}, info)
		if pkg == nil {
			return
		}

		build := func() (*waitGraph, []string) {
			pass := &Pass{
				Analyzer:  AbpWait,
				Fset:      fset,
				Files:     []*ast.File{file},
				Pkg:       pkg,
				TypesInfo: info,
				facts:     buildFacts([]*ast.File{file}, pkg, info), // must not panic
			}
			a := collectWaits(pass) // must not panic
			a.reportNakedWaits()
			a.reportMissedSignals()
			a.reportWaitCycles()
			a.reportUnboundedBlocks()
			a.reportNonBlocking()
			var shape []string
			for _, w := range a.waits {
				objs := make([]string, 0, len(w.objs))
				for _, o := range w.objs {
					objs = append(objs, fmt.Sprintf("%s/%v", o.name, o.exempt))
				}
				shape = append(shape, fmt.Sprintf("wait %v %d %q %v [%s]",
					fset.Position(w.node.Pos()), w.kind, w.desc, w.escape,
					strings.Join(objs, ",")))
			}
			for _, s := range a.signals {
				shape = append(shape, fmt.Sprintf("signal %v %s wg=%v defer=%v",
					fset.Position(s.node.Pos()), s.op, s.wg, s.deferred))
			}
			diags := pass.diags
			sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
			for _, d := range diags {
				shape = append(shape, fmt.Sprintf("diag %v %s", fset.Position(d.Pos), d.Message))
			}
			return a, shape
		}

		a, shape := build()
		_, again := build()
		if strings.Join(shape, "\n") != strings.Join(again, "\n") {
			t.Fatalf("nondeterministic wait graph:\n--- first ---\n%s\n--- second ---\n%s",
				strings.Join(shape, "\n"), strings.Join(again, "\n"))
		}

		// Well-formedness: every site is attributed and classified.
		for _, w := range a.waits {
			if w.fn == nil || w.node == nil {
				t.Fatalf("wait site with missing attribution: %+v", w)
			}
			if w.kind > waitSleep {
				t.Fatalf("wait site with unknown kind %d at %v", w.kind, fset.Position(w.node.Pos()))
			}
			if w.desc == "" {
				t.Fatalf("wait site with empty description at %v", fset.Position(w.node.Pos()))
			}
		}
		for _, s := range a.signals {
			if s.fn == nil || s.node == nil {
				t.Fatalf("signal site with missing attribution: %+v", s)
			}
			switch s.op {
			case "send", "close", "Add", "Done":
			default:
				t.Fatalf("signal site with unknown op %q at %v", s.op, fset.Position(s.node.Pos()))
			}
			if s.wg != (s.op == "Add" || s.op == "Done") {
				t.Fatalf("signal wg flag %v inconsistent with op %q at %v",
					s.wg, s.op, fset.Position(s.node.Pos()))
			}
		}

		// A select with a default clause is non-blocking by definition and
		// must never appear as a wait site.
		defaulted := map[ast.Node]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, c := range sel.Body.List {
				if clause, ok := c.(*ast.CommClause); ok && clause.Comm == nil {
					defaulted[sel] = true
				}
			}
			return true
		})
		for _, w := range a.waits {
			if defaulted[w.node] {
				t.Fatalf("select with default collected as a blocking wait at %v",
					fset.Position(w.node.Pos()))
			}
		}
	})
}
