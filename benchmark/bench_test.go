package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationsAgree holds BENCHMARK.json and the program to the same
// workloads and metrics, by name, unit and order.
func TestDeclarationsAgree(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, wl := range decl.Workloads {
		unique(wl.Name)
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, wl.Name, workloads[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
	}
	check := func(kind string, declared []boundDecl, program []metricDecl) {
		t.Helper()
		if len(declared) != len(program) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(program))
		}
		for i, d := range declared {
			unique(d.Name)
			if d.Name != program[i].Name || d.Unit != program[i].Unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the program",
					kind, i, d.Name, d.Unit, program[i].Name, program[i].Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndMetrics)
	check("per_layer", decl.PerLayer, perLayerMetrics)
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if decl.EndToEnd[0].Name != "setup_s" || decl.EndToEnd[0].Better != "lower" {
		t.Error("the first end-to-end metric must be setup_s, lower is better")
	}
}

// runSmoke runs one workload for a 200 ms window and returns the human
// report and the parsed last line.
func runSmoke(t *testing.T, name, trace, outDir string) (string, map[string]json.RawMessage) {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--out", outDir}, &out); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	return strings.Join(lines[:len(lines)-1], "\n"), last
}

// checkResult asserts the last line has exactly the contract's keys and
// exactly the declared metrics, each printed once by name in the report.
func checkResult(t *testing.T, name, human string, last map[string]json.RawMessage, decls []metricDecl) {
	t.Helper()
	if len(last) != 4 {
		t.Errorf("%s: last line has %d keys, want correct, attempted, failed, metrics", name, len(last))
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]map[string]any
	for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(last[key], dst); err != nil {
			t.Fatalf("%s: key %s: %v", name, key, err)
		}
	}
	if !correct || failed != 0 || attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", name, correct, attempted, failed, human)
	}
	if len(metrics) != len(decls) {
		t.Errorf("%s: %d metrics reported, %d declared", name, len(metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s is missing", name, d.Name)
			continue
		}
		if len(m) != 2 || m["unit"] != d.Unit {
			t.Errorf("%s: metric %s is %v, want a value and the unit %s", name, d.Name, m, d.Unit)
		}
		if n := strings.Count(human, "\n  "+d.Name+" "); n != 1 {
			t.Errorf("%s: metric %s is printed %d times, want once", name, d.Name, n)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the benchmark needs GOMAXPROCS >= 2")
	}
	for _, wl := range workloads {
		human, last := runSmoke(t, wl.name, "0", t.TempDir())
		checkResult(t, wl.name, human, last, endToEndMetrics)
	}
}

// TestSmokeTracedRun makes the traced run of every workload, or in short
// mode of one fork-join and one serve workload, which between them run
// every phase.
func TestSmokeTracedRun(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the benchmark needs GOMAXPROCS >= 2")
	}
	for _, wl := range workloads {
		if testing.Short() && wl.name != "fj_fine" && wl.name != "serve_open" {
			continue
		}
		dir := t.TempDir()
		human, last := runSmoke(t, wl.name, "1", dir)
		checkResult(t, wl.name, human, last, perLayerMetrics)
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+wl.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &trace); err != nil {
			t.Fatalf("%s: trace file: %v", wl.name, err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file has no spans", wl.name)
		}
		for _, e := range trace.TraceEvents {
			if e.Name == "" || e.Ph != "X" || e.Args["op"] == nil || e.Args["parent"] == nil {
				t.Fatalf("%s: span %+v lacks a name, an op id or a parent", wl.name, e)
			}
		}
	}
}

func TestRefusesOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := run([]string{"--workload", "fj_fine", "--seconds", "0.1", "--out", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("the benchmark ran at GOMAXPROCS=1, where no steal can occur")
	}
}
