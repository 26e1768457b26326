package worksteal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runFlag is a quoted -run pattern.
var runFlag = regexp.MustCompile(`-run '([^']*)'`)

// Every -run pattern a workflow passes to go test names tests that exist: a
// renamed or deleted test would otherwise drop out of a CI step without a
// sound. Each |-separated alternative must match a Test function declared in
// the _test.go files of the directory the command tests.
func TestWorkflowRunPatternsNameTests(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files: %v", err)
	}
	checked := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			// The command runs from "go test" to the end of the line or
			// the next command; its last word is the package directory.
			_, cmd, ok := strings.Cut(line, "go test ")
			cmd, _, _ = strings.Cut(cmd, "&&")
			m := runFlag.FindStringSubmatch(cmd)
			if !ok || m == nil || m[1] == "^$" || strings.Contains(line, "${{") {
				continue
			}
			words := strings.Fields(cmd)
			dir := words[len(words)-1]
			tests := testNames(t, dir)
			for _, alt := range strings.Split(m[1], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: -run alternative %q: %v", file, i+1, alt, err)
					continue
				}
				if !slices.ContainsFunc(tests, re.MatchString) {
					t.Errorf("%s:%d: -run alternative %q matches no test in %s", file, i+1, alt, dir)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no workflow line passes a -run pattern to go test")
	}
}

// testNames returns the Test functions declared in dir's _test.go files.
func testNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files: %v", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
