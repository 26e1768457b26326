package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "mustcheck", File: "internal/sched/pool.go", Line: 42, Column: 7, Message: "boom"}
	got := f.String()
	want := "internal/sched/pool.go:42:7: boom (mustcheck)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMakeFindingRelativizes(t *testing.T) {
	root := filepath.FromSlash("/work/mod")
	fset := token.NewFileSet()
	tf := fset.AddFile(filepath.Join(root, "pkg", "a.go"), -1, 32)
	tf.SetLinesForContent([]byte("package a\nvar x = 1\n"))
	pos := tf.Pos(14) // inside line 2

	f := MakeFinding("tagaba", fset, pos, "msg", root)
	if f.File != "pkg/a.go" {
		t.Errorf("File = %q, want %q", f.File, "pkg/a.go")
	}
	if f.Line != 2 {
		t.Errorf("Line = %d, want 2", f.Line)
	}
	if f.Analyzer != "tagaba" || f.Message != "msg" {
		t.Errorf("unexpected finding %+v", f)
	}

	// A file outside the root keeps its absolute (slashed) path.
	out := fset.AddFile(filepath.FromSlash("/elsewhere/b.go"), -1, 16)
	out.SetLinesForContent([]byte("package b\n"))
	g := MakeFinding("tagaba", fset, out.Pos(2), "msg", root)
	if g.File != "/elsewhere/b.go" {
		t.Errorf("outside-root File = %q, want %q", g.File, "/elsewhere/b.go")
	}
}

func TestWriteSARIFShape(t *testing.T) {
	findings := []Finding{
		{Analyzer: "tagaba", File: "internal/deque/deque.go", Line: 5, Column: 3, Message: "aba"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "abpvet", All(), findings); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "abpvet" {
		t.Errorf("driver name = %q, want abpvet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(All()) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(All()))
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "tagaba" || res.Level != "error" || res.Message.Text != "aba" {
		t.Errorf("unexpected result %+v", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/deque/deque.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("unexpected artifact location %+v", loc.ArtifactLocation)
	}
	if loc.Region.StartLine != 5 || loc.Region.StartColumn != 3 {
		t.Errorf("unexpected region %+v", loc.Region)
	}
}

func TestUnusedIgnoreFinding(t *testing.T) {
	root := filepath.FromSlash("/work/mod")
	d := &IgnoreDirective{
		File:     filepath.Join(root, "internal", "sched", "pool.go"),
		Line:     7,
		Analyzer: "mustcheck",
	}
	f := UnusedIgnoreFinding(d, root, true)
	if f.Analyzer != UnusedIgnoreAnalyzer.Name {
		t.Errorf("analyzer = %q, want %q", f.Analyzer, UnusedIgnoreAnalyzer.Name)
	}
	if f.File != "internal/sched/pool.go" || f.Line != 7 {
		t.Errorf("location = %s:%d, want internal/sched/pool.go:7", f.File, f.Line)
	}
	if !strings.Contains(f.Message, "mustcheck") || !strings.Contains(f.Message, "suppresses nothing") {
		t.Errorf("unexpected message %q", f.Message)
	}
}
