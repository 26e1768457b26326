package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchDecl is BENCHMARK.json: the names, units, directions and bounds
// this program's output is judged by.
type benchDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDecl `json:"end_to_end"`
	PerLayer []boundDecl `json:"per_layer"`
}

type boundDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadDecl reads BENCHMARK.json from the working directory or its parent:
// the benchmark runs from its own directory, one below the file.
func loadDecl() (*benchDecl, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var d benchDecl
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// spread estimates how far a metric's value moves between runs of one
// commit, as a share of the value. The value is the median of N sub-window
// values whose quartiles are Q1 and Q3; the quartile distance of such a
// median over repeated runs is about 1.25/sqrt(N) of the sub-windows'.
func (m metric) spread() float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	return 1.25 * (m.Q3 - m.Q1) / math.Sqrt(float64(m.N)) / math.Abs(m.Value)
}

// The three verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to its values before (a)
// and after (b). A spread wider than the bound cannot resolve a change of
// the bound's size either way, so it is reported as such and not as ok.
func judge(d boundDecl, a, b metric) (worseBy, spread float64, verdict string) {
	worseBy = (b.Value - a.Value) / math.Abs(a.Value)
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	spread = math.Max(a.spread(), b.spread())
	switch {
	case spread > d.Bound:
		return worseBy, spread, verdictUnresolved
	case worseBy > d.Bound:
		return worseBy, spread, verdictWorse
	}
	return worseBy, spread, verdictOK
}

type compareRow struct {
	Workload, Metric string
	A, B             float64
	WorseBy, Spread  float64
	Bound            float64
	Verdict          string
}

// compareReports makes one row per workload and end-to-end metric that
// both sides measured untraced, in BENCHMARK.json's order.
func compareReports(decl *benchDecl, a, b []*report) ([]compareRow, error) {
	find := func(rs []*report, name string) *report {
		for _, r := range rs {
			if r.Workload == name && !r.Traced {
				return r
			}
		}
		return nil
	}
	var rows []compareRow
	for _, wl := range decl.Workloads {
		ra, rb := find(a, wl.Name), find(b, wl.Name)
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil || rb == nil {
			return nil, fmt.Errorf("workload %s is in one file only", wl.Name)
		}
		for _, d := range decl.EndToEnd {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				return nil, fmt.Errorf("%s: metric %s is missing", wl.Name, d.Name)
			}
			row := compareRow{Workload: wl.Name, Metric: d.Name, A: ma.Value, B: mb.Value, Bound: d.Bound}
			row.WorseBy, row.Spread, row.Verdict = judge(d, ma, mb)
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("the files share no untraced workload")
	}
	return rows, nil
}

func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*report
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

var errWorse = errors.New("at least one metric is worse by more than its bound")

// compareFiles prints the table for two result files and reports errWorse
// if any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	decl, err := loadDecl()
	if err != nil {
		return err
	}
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	b, err := readReports(pathB)
	if err != nil {
		return err
	}
	rows, err := compareReports(decl, a, b)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tspread\tbound\tverdict")
	worse := false
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.WorseBy, 100*r.Spread, 100*r.Bound, r.Verdict)
		worse = worse || r.Verdict == verdictWorse
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse {
		return errWorse
	}
	return nil
}
