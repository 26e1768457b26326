package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func testDecl() *benchDecl {
	d := &benchDecl{EndToEnd: []boundDecl{
		{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "op_ms_p99", Unit: "ms", Better: "lower", Bound: 0.15},
	}}
	d.Workloads = append(d.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "fj_fine"})
	return d
}

// steady is a metric whose sub-windows barely differ, so its spread is
// far inside any bound.
func steady(v float64) metric { return metric{Value: v, Q1: v * 0.995, Q3: v * 1.005, N: 10} }

func reportOf(tasks, p99 metric) []*report {
	r := &report{Workload: "fj_fine"}
	r.Metrics = map[string]metric{"tasks_per_s": tasks, "op_ms_p99": p99}
	return []*report{r}
}

func TestCompareVerdicts(t *testing.T) {
	base := reportOf(steady(1000), steady(10))
	cases := []struct {
		name       string
		after      []*report
		tasks, p99 string
	}{
		{"unchanged", reportOf(steady(1000), steady(10)), verdictOK, verdictOK},
		{"inside the bounds", reportOf(steady(910), steady(11.4)), verdictOK, verdictOK},
		{"throughput down 11 %", reportOf(steady(890), steady(10)), verdictWorse, verdictOK},
		{"p99 up 16 %", reportOf(steady(1000), steady(11.6)), verdictOK, verdictWorse},
		{"both much better", reportOf(steady(2000), steady(5)), verdictOK, verdictOK},
		{"p99 too noisy to tell", reportOf(steady(1000), metric{Value: 10, Q1: 8, Q3: 13, N: 10}), verdictOK, verdictUnresolved},
		{"noisy and worse is still unresolved", reportOf(steady(1000), metric{Value: 20, Q1: 14, Q3: 26, N: 10}), verdictOK, verdictUnresolved},
	}
	for _, c := range cases {
		rows, err := compareReports(testDecl(), base, c.after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != 2 || rows[0].Metric != "tasks_per_s" || rows[1].Metric != "op_ms_p99" {
			t.Fatalf("%s: rows %+v, want one per metric in declared order", c.name, rows)
		}
		if rows[0].Verdict != c.tasks || rows[1].Verdict != c.p99 {
			t.Errorf("%s: verdicts %s/%s, want %s/%s", c.name, rows[0].Verdict, rows[1].Verdict, c.tasks, c.p99)
		}
	}
}

func TestCompareRejectsMissingData(t *testing.T) {
	base := reportOf(steady(1000), steady(10))
	missing := reportOf(steady(1000), steady(10))
	delete(missing[0].Metrics, "op_ms_p99")
	if _, err := compareReports(testDecl(), base, missing); err == nil {
		t.Error("a missing metric compared without error")
	}
	if _, err := compareReports(testDecl(), base, nil); err == nil {
		t.Error("a workload present in one file only compared without error")
	}
	traced := reportOf(steady(1000), steady(10))
	traced[0].Traced = true
	if _, err := compareReports(testDecl(), traced, traced); err == nil {
		t.Error("traced reports were compared as end-to-end results")
	}
}

// TestCompareFiles goes through the files and BENCHMARK.json's own bounds:
// a result file against itself is ok on every row, and against a copy
// with one metric doctored past its bound it is worse on that row alone.
func TestCompareFiles(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	var base, doctored []*report
	for _, wl := range decl.Workloads {
		a, b := &report{Workload: wl.Name}, &report{Workload: wl.Name}
		a.Metrics, b.Metrics = map[string]metric{}, map[string]metric{}
		for _, d := range decl.EndToEnd {
			a.Metrics[d.Name], b.Metrics[d.Name] = steady(100), steady(100)
		}
		base, doctored = append(base, a), append(doctored, b)
	}
	victim := decl.EndToEnd[1]
	v := 100 * (1 + 1.5*victim.Bound)
	if victim.Better == "higher" {
		v = 100 * (1 - 1.5*victim.Bound)
	}
	doctored[0].Metrics[victim.Name] = steady(v)

	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(pa, base); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(pb, doctored); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, pa, pa); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
	if n := countVerdicts(out.String(), verdictOK); n != len(decl.Workloads)*len(decl.EndToEnd) {
		t.Errorf("%d ok rows, want one per workload and metric:\n%s", n, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, pa, pb); !errors.Is(err, errWorse) {
		t.Errorf("doctored file: error %v, want errWorse", err)
	}
	if n := countVerdicts(out.String(), verdictWorse); n != 1 {
		t.Errorf("%d worse rows, want 1:\n%s", n, out.String())
	}
}

// countVerdicts counts the table's rows whose last column is verdict.
func countVerdicts(table, verdict string) int {
	n := 0
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[len(f)-1] == verdict {
			n++
		}
	}
	return n
}
