// Command abpmutate measures which guard catches which bug. It applies each
// seeded mutation of mutations.json (a file, an old text, its new text and
// the invariant the change breaks) to a scratch copy of the module and runs
// every guard on its own: each analyzer of abplint, each protocol model
// (the Test<Name>Model tests of internal/sched), the chaos -race steps of
// CI, the layout pins, the cost table under -tags abpsync and the rest of
// go test ./internal/... . A guard that fails runs a second time, and it
// catches the mutation only if both runs fail.
// The unmutated tree is the first row, run twice through every guard, and
// every guard must pass it. The output is the mutation × guard matrix in
// Markdown: x a catch, ~ one failure of two, . a pass, and a row of B for
// a mutation that does not build. The test guards run under go test -json,
// and the per-test table follows: each test's lines, its seconds in HEAD's
// first run and the mutations it failed in both runs (x), in one (~), or
// never reached because its package died first (?).
//
// Usage (three to ten minutes a mutation on two cores, the more the longer
// its hung tests wait for their timeouts; CI does not run it):
//
//	go run ./cmd/abpmutate [-m id,id] [-g regexp] [-logs dir] > matrix.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

type edit struct{ File, Old, New string }

type mutation struct {
	ID, Invariant string
	Edits         []edit
}

type guard struct {
	name string
	cmds [][]string // each a directory and a command line; the first to fail fails the guard
}

func guards() []guard {
	var gs []guard
	const sched = "internal/sched"
	for _, a := range []string{"owner", "cas", "handshake", "mustcheck", "abprace", "abporder", "abpwait"} {
		gs = append(gs, guard{a, [][]string{{".", "bin/abplint", "-only", a, "./..."}}})
	}
	models, err := modelNames()
	check(err)
	for _, m := range models {
		gs = append(gs, guard{"model:" + m, [][]string{{sched, "bin/sched.test", "-test.run", "^Test" + m + "Model", "-test.timeout", "120s"}}})
	}
	chaos, err := chaosSteps()
	check(err)
	return append(gs,
		guard{"chaos", chaos},
		guard{"layout", [][]string{{".", "go", "test", "-json", "-count=1", "-run", "LayoutPins|CacheLinePadPins", "./internal/..."}}},
		guard{"abpsync", [][]string{{".", "go", "test", "-json", "-count=1", "-tags", "abpsync", "-timeout", "60s", "-run", "TestCostTable|Allocat|TestSyncOpsPerRun", "./" + sched}}},
		guard{"rest", [][]string{{".", "go", "test", "-json", "-count=1", "-timeout", "90s", "-skip", "Test[A-Za-z]*Model|LayoutPins|CacheLinePadPins", "./internal/..."}}},
	)
}

// modelNames returns the protocol models of internal/sched, each the Name
// of its Test<Name>Model tests, in order.
func modelNames() (names []string, err error) {
	files, err := filepath.Glob("internal/sched/*_test.go")
	seen := map[string]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, m := range modelTest.FindAllSubmatch(b, -1) {
			if n := string(m[1]); !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	if err == nil && names == nil {
		err = fmt.Errorf("internal/sched has no Test<Name>Model test")
	}
	return names, err
}

var modelTest = regexp.MustCompile(`(?m)^func Test([A-Z][a-z]+)Model[A-Za-z]*\(`)

// chaosSteps returns CI's chaos steps, its workflow's go test -race
// -count=20 lines, as they are written there.
func chaosSteps() (cmds [][]string, err error) {
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if _, step, ok := strings.Cut(line, "run: go test -race -count=20 "); ok {
			cmds = append(cmds, []string{".", "sh", "-c", "go test -json -timeout 200s -race -count=20 " + step})
		}
	}
	if cmds == nil {
		err = fmt.Errorf("ci.yml has no chaos step")
	}
	return cmds, err
}

func main() {
	only := flag.String("m", "", "comma-separated mutation ids to run, HEAD for the unmutated tree (default all)")
	gpat := flag.String("g", "", "run only the guards whose name matches this regexp")
	logs := flag.String("logs", "", "directory for the output of each failing guard run")
	flag.Parse()
	var ms []mutation
	all, err := readMutations()
	check(err)
	for _, m := range append([]mutation{{ID: "HEAD", Invariant: "none: the unmutated tree"}}, all...) {
		if *only == "" || strings.Contains(","+*only+",", ","+m.ID+",") {
			ms = append(ms, m)
		}
	}
	var gs []guard
	header := "| mutation |"
	for _, g := range guards() {
		if regexp.MustCompile(*gpat).MatchString(g.name) {
			gs, header = append(gs, g), header+" "+g.name+" |"
		}
	}

	src, err := os.Getwd()
	check(err)
	dir, err := os.MkdirTemp("", "abpmutate")
	check(err)
	defer os.RemoveAll(dir)
	out, err := exec.Command("git", "ls-files", "--cached", "--others", "--exclude-standard").Output()
	check(err)
	for _, f := range strings.Fields(string(out)) {
		if b, err := os.ReadFile(filepath.Join(src, f)); err == nil {
			check(os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755))
			check(os.WriteFile(filepath.Join(dir, f), b, 0o644))
		}
	}
	check(run(dir, nil, "go", "build", "-o", "bin/abplint", "./cmd/abplint"))

	fmt.Printf("%s\n|---|%s\n", header, strings.Repeat("---|", len(gs)))
	tab := perTest{}
	for _, m := range ms {
		restore := apply(dir, m)
		row := strings.Split(strings.Repeat("B", len(gs)), "")
		if err := build(dir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: does not build: %v\n", m.ID, err)
		} else {
			for i, g := range gs {
				var runs []result
				for run := 1; run <= 2; run++ {
					r := g.run(dir, *logs, m.ID, run)
					if runs = append(runs, r); !r.failed && m.ID != "HEAD" {
						break
					}
				}
				row[i] = tab.add(g, m.ID, runs)
			}
		}
		fmt.Printf("| %s | %s |\n", m.ID, strings.Join(row, " | "))
		restore()
	}
	tab.print()
}

// apply writes m's edits into the copy and returns what puts it back; an
// old text must occur exactly once in its file.
func apply(dir string, m mutation) (restore func()) {
	saved := map[string][]byte{}
	for _, e := range m.Edits {
		p := filepath.Join(dir, e.File)
		b, err := os.ReadFile(p)
		check(err)
		if _, ok := saved[p]; !ok {
			saved[p] = b
		}
		src, err := applyEdit(string(b), e)
		if err != nil {
			check(fmt.Errorf("%s: %v", m.ID, err))
		}
		check(os.WriteFile(p, []byte(src), 0o644))
	}
	return func() {
		for p, b := range saved {
			check(os.WriteFile(p, b, 0o644))
		}
	}
}

// readMutations reads the campaign's mutations.
func readMutations() (all []mutation, err error) {
	b, err := os.ReadFile("cmd/abpmutate/mutations.json")
	if err == nil {
		err = json.Unmarshal(b, &all)
	}
	return all, err
}

// applyEdit returns src with e made, whose old text must occur in it
// exactly once.
func applyEdit(src string, e edit) (string, error) {
	if n := strings.Count(src, e.Old); n != 1 {
		return "", fmt.Errorf("old text occurs %d times in %s", n, e.File)
	}
	return strings.Replace(src, e.Old, e.New, 1), nil
}

// build compiles the model guards' test binary, and the counting build's.
func build(dir string) error {
	if err := run(dir, nil, "go", "test", "-c", "-o", "bin/sched.test", "./internal/sched/"); err != nil {
		return err
	}
	return run(dir, nil, "go", "test", "-tags", "abpsync", "-c", "-o", "bin/sync.test", "./internal/sched/")
}

// result is one run of a guard, with each test's outcome under go test -json.
type result struct {
	failed bool
	tests  map[string]*outcome
}

// run runs g's commands in the copy dir.
func (g guard) run(dir, logs, id string, n int) (r result) {
	var log strings.Builder
	for _, c := range g.cmds {
		prog := c[1]
		if strings.HasPrefix(prog, "bin/") {
			prog = filepath.Join(dir, prog)
		}
		if r.failed = run(filepath.Join(dir, c[0]), &log, prog, c[2:]...) != nil; r.failed {
			break
		}
	}
	tests, out := parseJSON(log.String())
	if r.tests = tests; r.failed && logs != "" {
		name := fmt.Sprintf("%s.%s.%d.log", id, strings.ReplaceAll(g.name, ":", "-"), n)
		check(os.WriteFile(filepath.Join(logs, name), []byte(out), 0o644))
	}
	return r
}

// outcome folds a test's events, its subtests' and -count repetitions'
// included; open counts the runs still going when the stream ended.
type outcome struct {
	open   int
	failed bool
	secs   float64
}

// parseJSON reads a go test -json stream into each test's outcome and the
// plain output it carries; a line that is not an event is kept as it is.
func parseJSON(out string) (map[string]*outcome, string) {
	tests := map[string]*outcome{}
	var plain strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		var ev struct {
			Action, Package, Test, Output string
			Elapsed                       float64
		}
		if json.Unmarshal([]byte(line), &ev) != nil || ev.Action == "" {
			plain.WriteString(line)
			continue
		}
		plain.WriteString(ev.Output)
		name, sub, _ := strings.Cut(ev.Test, "/")
		if name == "" {
			continue
		}
		key := strings.TrimPrefix(ev.Package, "worksteal/") + "." + name
		o := tests[key]
		if o == nil {
			o = &outcome{}
			tests[key] = o
		}
		o.failed = o.failed || ev.Action == "fail"
		switch {
		case sub != "":
		case ev.Action == "run":
			o.open++
		case ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip":
			o.open--
			o.secs += ev.Elapsed
		}
	}
	return tests, plain.String()
}

// perTest is the per-test table, a row per test guard and test.
type perTest map[string]*testRow // keyed "guard pkg.Test"

type testRow struct {
	secs             float64
	x, once, unknown []string
}

// add records mutation id's runs of g and returns g's matrix cell. A test
// fails a run if it failed or was still running when its package died; it
// is unknown in a failed run that never reached it.
func (tab perTest) add(g guard, id string, runs []result) string {
	failed := 0
	for _, r := range runs {
		if r.failed {
			failed++
		}
		for test := range r.tests {
			if tab[g.name+" "+test] == nil {
				tab[g.name+" "+test] = &testRow{}
			}
		}
	}
	for key, row := range tab {
		guard, test, _ := strings.Cut(key, " ")
		if guard != g.name {
			continue
		}
		f, u := 0, 0
		for _, r := range runs {
			if o := r.tests[test]; o == nil && r.failed {
				u++
			} else if o != nil && (o.failed || o.open > 0) {
				f++
			}
		}
		if o := runs[0].tests[test]; id == "HEAD" && o != nil {
			row.secs = o.secs
		}
		switch {
		case f == 2:
			row.x = append(row.x, id)
		case u > 0:
			row.unknown = append(row.unknown, id)
		case f == 1:
			row.once = append(row.once, id)
		}
	}
	return ".~x"[failed : failed+1]
}

// print writes the per-test table in Markdown, by guard and test.
func (tab perTest) print() {
	var keys []string
	for k := range tab {
		keys = append(keys, k)
	}
	if keys == nil {
		return
	}
	sort.Strings(keys)
	fmt.Printf("\n| guard | test | lines | s | x | ~ | ? |\n|---|---|--:|--:|---|---|---|\n")
	lines := map[string]map[string]int{}
	for _, k := range keys {
		guard, test, _ := strings.Cut(k, " ")
		dir, name, _ := strings.Cut(test, ".")
		if lines[dir] == nil {
			lines[dir] = funcLines(dir)
		}
		r := tab[k]
		fmt.Printf("| %s | %s | %d | %.2f | %s | %s | %s |\n", guard, test, lines[dir][name], r.secs,
			strings.Join(r.x, " "), strings.Join(r.once, " "), strings.Join(r.unknown, " "))
	}
}

// funcLines returns the lines of each top-level function that the
// _test.go files of dir declare, whatever their build tags.
func funcLines(dir string) map[string]int {
	lines := map[string]int{}
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, f := range files {
		b, _ := os.ReadFile(f)
		name, start := "", 0
		for i, l := range strings.Split(string(b), "\n") {
			if m := funcDecl.FindStringSubmatch(l); m != nil {
				name, start = m[1], i
			}
			if name != "" && (l == "}" || i == start && strings.HasSuffix(l, "}")) {
				lines[name], name = i-start+1, ""
			}
		}
	}
	return lines
}

var funcDecl = regexp.MustCompile(`^func (\w+)\(`)

func run(dir string, log *strings.Builder, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if log != nil {
		log.Write(out)
	} else if err != nil {
		err = fmt.Errorf("%s: %v\n%s", strings.Join(cmd.Args, " "), err, out)
	}
	return err
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "abpmutate:", err)
		os.Exit(2)
	}
}
