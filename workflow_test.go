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
// the _test.go files of the directory the command tests, and a fuzz
// matrix's pkg and target must name a Fuzz function of that package.
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
		pkg := ""
		for i, line := range strings.Split(string(src), "\n") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(line), "- pkg:"); ok {
				pkg = strings.TrimSpace(v)
			} else if v, ok := strings.CutPrefix(strings.TrimSpace(line), "target:"); ok && pkg != "" {
				if target := strings.TrimSpace(v); !slices.Contains(declared(t, pkg, "Fuzz"), target) {
					t.Errorf("%s:%d: fuzz target %s is not a Fuzz function of %s", file, i+1, target, pkg)
				}
				pkg = ""
			}
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
			tests := declared(t, dir, "Test")
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

// declared returns the functions whose names start with prefix that dir's
// _test.go files declare, whatever their build tags.
func declared(t *testing.T, dir, prefix string) []string {
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
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// citedTest is a test, fuzz target or benchmark named in prose.
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*`)

// Every test the docs cite exists: a "Checked by" line that names a deleted
// or renamed test would otherwise send its reader to nothing. Each Test,
// Fuzz or Benchmark name in the design notes, the README and the verify
// recipe must be a function some _test.go file of the repository declares,
// or a prefix of one (a family, such as TestRecycle).
func TestDocsCiteTestsThatExist(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		} else if path != "." && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return filepath.SkipDir
		} else if files, _ := filepath.Glob(filepath.Join(path, "*_test.go")); files != nil {
			funcs = append(funcs, declared(t, path, "")...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range citedTest.FindAllString(line, -1) {
				if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
					t.Errorf("%s:%d: %s names no declared test", doc, i+1, name)
				}
			}
		}
	}
}
