// Package lint implements abplint, a static-analysis suite that mechanically
// enforces the concurrency contracts this repository's correctness rests on:
// the deque's "good set of invocations" (owner-only PushBottom/PopBottom,
// paper Section 3.2), the non-blocking property of the Figure 5 operations,
// the all-atomic access discipline the parking handshake's Dekker argument
// needs, and the reload-inside-the-loop discipline that keeps CAS retry
// loops ABA-safe. DESIGN.md section 8 maps each analyzer to the paper claim
// it guards.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built purely on the standard library
// (go/ast, go/types, `go list`), so the module stays dependency-free and the
// vet suite runs offline. Should x/tools ever become a dependency, each
// Analyzer.Run ports mechanically.
//
// A suite run over a package (RunSuite) starts with one fact pass
// (facts.go): the call graph with its caller index and //abp:owner closure,
// the goroutine roots and per-function contexts, memoized per-function CFGs
// and reaching definitions, the access set over every function, the
// per-function synchronization operations, and the resolved //abp:handshake
// table. The ten analyzers read those facts and build none of their own.
//
// Three comment directives put code in scope:
//
//	//abp:owner        the function is an audited deque-owner context; the
//	                   owner-only operations may be called from it and from
//	                   any function it (transitively, statically) calls.
//	//abp:nonblocking  the function must not perform blocking operations.
//	//abp:handshake store=<name> load=<name>
//	                   the function is one side of a Dekker store→load
//	                   protocol (handshake.go).
//
// And one family takes findings out of scope, placed on (or on the line
// directly above) the flagged line:
//
//	//abp:ignore <analyzer> <justification>
//	//abp:<race|order|layout|wait>-ignore <justification>
//
// The second form is shorthand for the first with the analyzer abprace,
// abporder, abplayout or abpwait (ignoreShorthands is the whole table). A
// directive is its exact spelling alone or followed by a space — a
// misspelled //abp:race-ignored is no directive at all — and the
// justification text is mandatory in every form: a bare ignore does not
// suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one abplint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //abp:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description shown by `abplint -help`.
	Doc string
	// Run performs the check on one package, reporting findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// facts is the suite run's shared fact layer (facts.go): read-only to
	// the analyzer.
	facts *pkgFacts
	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the abplint analyzer suite: the six contract analyzers of
// PRs 2 and 3 (eight until PR 22 merged the two over the //abp:owner
// closure and the two over CAS sites), PR 4's whole-package race detector,
// PR 7's memory-ordering necessity analyzer, PR 8's cache-layout analyzer,
// and PR 9's liveness analyzer, in alphabetical order.
func All() []*Analyzer {
	return []*Analyzer{AbpLayout, AbpOrder, AbpRace, AbpWait, AtomicMix, CAS, Handshake, MustCheck, NonBlocking, Owner}
}

// Run applies one analyzer to a loaded package and returns its findings,
// with //abp:ignore-suppressed diagnostics removed and the rest sorted by
// position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	diags, err := RunSuite([]*Analyzer{a}, pkg, CollectIgnores(pkg))
	if err != nil {
		return nil, err
	}
	return diags[0], nil
}

// RunSuite applies analyzers to a loaded package, in order, over one fact
// pass, and returns each one's findings as Run would. The ignore index is
// the caller's, so it can afterwards report which directives never
// suppressed anything (Ignores.Unused). Every way into the suite — the
// Tool driver, Run, the fixture harness, BenchmarkAbpvet — is this
// function: the facts live exactly as long as the call.
func RunSuite(analyzers []*Analyzer, pkg *Package, ignores *Ignores) ([][]Diagnostic, error) {
	facts := buildFacts(pkg.Files, pkg.Types, pkg.Info)
	out := make([][]Diagnostic, len(analyzers))
	for i, a := range analyzers {
		diags, err := runOne(a, pkg, facts, ignores)
		if err != nil {
			return nil, err
		}
		out[i] = diags
	}
	return out, nil
}

func runOne(a *Analyzer, pkg *Package, facts *pkgFacts, ignores *Ignores) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		facts:     facts,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	kept := pass.diags[:0]
	for _, d := range pass.diags {
		pos := pkg.Fset.Position(d.Pos)
		if ignores.suppress(pos.Filename, pos.Line, a.Name) {
			continue
		}
		kept = append(kept, d)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// An IgnoreDirective is one justified ignore comment.
type IgnoreDirective struct {
	Pos      token.Pos
	File     string
	Line     int
	Analyzer string
	// Form is the directive as written ("//abp:ignore cas" or
	// "//abp:race-ignore"), so unused-ignore findings quote the right
	// spelling.
	Form string
	used bool
}

// Ignores indexes a package's ignore directives and records which of them
// actually suppressed a finding.
type Ignores struct {
	byKey map[ignoreKey]*IgnoreDirective
	all   []*IgnoreDirective
}

// ignoreShorthands maps X in //abp:X-ignore to the analyzer that form
// addresses.
var ignoreShorthands = map[string]string{
	"race":   "abprace",
	"order":  "abporder",
	"layout": "abplayout",
	"wait":   "abpwait",
}

// parseIgnore parses one comment as an ignore directive, any of the five
// forms. The directive word must stand alone or be followed by a space
// (hasDirective's rule), and a justification must follow; anything else is
// no directive.
func parseIgnore(text string) (analyzer, form string, ok bool) {
	body, ok := strings.CutPrefix(text, "//abp:")
	if !ok {
		return "", "", false
	}
	word, rest, _ := strings.Cut(body, " ")
	fields := strings.Fields(rest)
	if word == "ignore" {
		if len(fields) < 2 {
			return "", "", false // no justification: directive is inert
		}
		return fields[0], "//abp:ignore " + fields[0], true
	}
	if short, isShort := strings.CutSuffix(word, "-ignore"); isShort && len(fields) > 0 {
		analyzer, ok = ignoreShorthands[short]
		return analyzer, "//abp:" + word, ok
	}
	return "", "", false
}

// CollectIgnores indexes every justified ignore directive by the file and
// line it appears on. Directives without a justification are inert and not
// indexed (and so can never be reported as unused either: they already do
// not suppress).
func CollectIgnores(pkg *Package) *Ignores {
	ig := &Ignores{byKey: map[ignoreKey]*IgnoreDirective{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, form, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &IgnoreDirective{Pos: c.Pos(), File: pos.Filename, Line: pos.Line, Analyzer: analyzer, Form: form}
				ig.byKey[ignoreKey{pos.Filename, pos.Line, analyzer}] = d
				ig.all = append(ig.all, d)
			}
		}
	}
	return ig
}

// suppress reports whether a directive covers a finding by analyzer at
// file:line (same line or the line above), marking the directive used.
func (ig *Ignores) suppress(file string, line int, analyzer string) bool {
	if ig == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		if d, ok := ig.byKey[ignoreKey{file, l, analyzer}]; ok {
			d.used = true
			return true
		}
	}
	return false
}

// Unused returns the directives that suppressed nothing across every
// RunSuite sharing this index — stale suppressions that should be deleted
// before they hide a future regression. Callers must scope the result to
// the analyzers that actually ran (each directive names its analyzer): a
// directive for an analyzer that did not run is unjudgeable, not stale —
// the Tool driver applies exactly that filter for -unused-ignores.
func (ig *Ignores) Unused() []*IgnoreDirective {
	var out []*IgnoreDirective
	for _, d := range ig.all {
		if !d.used {
			out = append(out, d)
		}
	}
	return out
}

// hasDirective reports whether doc contains the exact comment directive
// (for example "//abp:owner"), alone or followed by explanatory text.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function values, built-ins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isAtomicFunc reports whether fn is a package-level function of
// sync/atomic (LoadInt64, CompareAndSwapUint32, ...).
func isAtomicFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
		fn.Type().(*types.Signature).Recv() == nil
}

// isAtomicMethod reports whether fn is a fully atomic method of one of
// sync/atomic's wrapper types (atomic.Int64, atomic.Pointer, ...) or of
// the ordering-annotated atomicx wrappers (internal/atomicx; matched by
// package name so testdata fixture copies resolve too). atomicx's plain
// accessors (Get, Set) are deliberately excluded: Set is a plain write, not
// an atomic one — see isAtomicxPlainMethod.
func isAtomicMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	if named.Obj().Pkg().Path() == "sync/atomic" {
		return true
	}
	if named.Obj().Pkg().Name() == "atomicx" {
		switch fn.Name() {
		case "Load", "Store", "Add", "Swap", "CompareAndSwap":
			return true
		}
	}
	return false
}

// isAtomicxPlainMethod reports whether fn is an accessor of an atomicx
// Plain* type (Get, Set): deliberate plain loads and stores whose safety
// rests on real happens-before edges, which abprace and abporder check
// exactly as they would a raw field access.
func isAtomicxPlainMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg().Name() != "atomicx" {
		return false
	}
	switch fn.Name() {
	case "Get", "Set":
		return true
	}
	return false
}

// recvNamed returns the named type of fn's receiver (after stripping one
// pointer), or nil for nil/receiverless/unnamed-receiver functions.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

// declsOf returns every top-level function declaration in the package;
// analyzers attribute call sites inside closures to the FuncDecl that
// lexically contains them.
func declsOf(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// funcName renders a FuncDecl's name with its receiver type, matching how
// diagnostics refer to methods.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteByte('(')
	writeRecvType(&b, fd.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeRecvType(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		writeRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver Deque[T]
		writeRecvType(b, t.X)
	case *ast.IndexListExpr:
		writeRecvType(b, t.X)
	default:
		fmt.Fprintf(b, "%T", e)
	}
}
