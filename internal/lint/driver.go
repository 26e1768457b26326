package lint

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Tool is one command-line front end over the analyzer suite. The whole
// CLI (flag parsing, loading, running, emitting, exit status) lives here in
// the library so cmd/abplint is a one-line wrapper and tests drive the
// command in-process.
type Tool struct {
	// Name prefixes diagnostics and names the SARIF driver.
	Name string
	// Analyzers is the suite this tool runs by default; -only selects a
	// subset of it.
	Analyzers []*Analyzer
}

// Main is the whole command, factored for in-process testing: it returns
// the exit status (0 clean, 1 findings, 2 operational failure) instead of
// calling os.Exit.
func (t *Tool) Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(t.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset of analyzers to run (default all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	sarifPath := fs.String("sarif", "", "write findings as SARIF 2.1.0 to this `file` (\"-\" for stdout)")
	unusedIgnores := fs.Bool("unused-ignores", false, "also report stale ignore directives addressed to the analyzers that ran, and those that name no analyzer")
	dir := fs.String("C", ".", "load packages as if launched from `dir`")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [flags] [packages]\n\n", t.Name)
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nanalyzers:\n")
		for _, a := range t.Analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := t.Analyzers
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "%s: unknown analyzer %q\n", t.Name, name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", t.Name, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := LoaderFor(root).Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", t.Name, err)
		return 2
	}

	// ran scopes -unused-ignores: a directive addressed to an analyzer
	// that did not run is not judged (it may suppress a finding this run
	// never computed). One addressed to no analyzer of the suite — a
	// misspelling, or one since merged into another — is stale whatever
	// ran.
	ran, known := map[string]bool{}, map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, a := range t.Analyzers {
		known[a.Name] = true
	}

	var findings []Finding
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		ignores := CollectIgnores(pkg)
		results, err := RunSuite(analyzers, pkg, ignores)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %s: %v\n", t.Name, pkg.ImportPath, err)
			return 2
		}
		for i, a := range analyzers {
			for _, d := range results[i] {
				findings = append(findings, MakeFinding(a.Name, pkg.Fset, d.Pos, d.Message, root))
			}
		}
		if *unusedIgnores {
			for _, d := range ignores.Unused() {
				if ran[d.Analyzer] || !known[d.Analyzer] {
					findings = append(findings, UnusedIgnoreFinding(d, root, known[d.Analyzer]))
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})

	if *sarifPath != "" {
		rules := analyzers
		if *unusedIgnores {
			rules = append(append([]*Analyzer(nil), rules...), UnusedIgnoreAnalyzer)
		}
		if err := t.writeSARIFTo(*sarifPath, stdout, rules, findings); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", t.Name, err)
			return 2
		}
	}
	if *sarifPath != "-" {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "%s: %d finding(s)\n", t.Name, len(findings))
		return 1
	}
	return 0
}

// writeSARIFTo writes the SARIF log to path, with "-" meaning stdout.
func (t *Tool) writeSARIFTo(path string, stdout io.Writer, rules []*Analyzer, findings []Finding) error {
	if path == "-" {
		return WriteSARIF(stdout, t.Name, rules, findings)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSARIF(f, t.Name, rules, findings); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
