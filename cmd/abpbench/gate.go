package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The -check flag turns -experiment elastic into a regression gate: the
// run's gated figures are compared with a committed snapshot
// (BENCH_elastic.json) and the process exits 1 if one slowed by more than
// 10 %. The experiment declares its gated columns as gateRows; gate is the
// comparator.

// benchHost is what a snapshot records about the host it was taken on. The
// report embeds it, so its two fields sit at the top level of the JSON.
type benchHost struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// CalibrationNs is the ns/op of a fixed serial spin measured in the
	// same run: the gate compares figures normalized by it, so a snapshot
	// from one machine remains a usable baseline on another (and uniform
	// container slowdowns cancel out).
	CalibrationNs float64 `json:"calibration_ns_per_op"`
}

// benchCalibrate times a fixed xorshift spin: a machine-speed yardstick
// with the in-core, no-memory-traffic profile of the streams' task bodies.
func benchCalibrate(reps int) float64 {
	const iters = 1 << 22
	best := 0.0
	for r := 0; r < reps; r++ {
		x := uint64(2463534242)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(start)) / float64(iters)
		if x == 0 { // defeat dead-code elimination
			panic("xorshift reached zero")
		}
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// gateRow is one gated column: the same figure from this run and from the
// baseline, in ns. A figure that is zero on either side is absent there and
// not compared: a new column is not a regression, and that carries the gate
// across a snapshot that predates one.
type gateRow struct {
	name      string
	cur, base float64
	// repSpread is how far this run's own reps disagreed on the figure
	// (slowest over fastest, minus one), for the columns that record it. A
	// spread wider than the budget cannot resolve a difference of the budget.
	repSpread float64
	// needsSameProcs marks a figure whose shape depends on how many
	// processors the host grants: calibration normalizes instruction speed,
	// not parallelism, so across different GOMAXPROCS it would gate the
	// machine, not the scheduler.
	needsSameProcs bool
}

const (
	gateBudget = 1.10

	verdictOK           = "ok"
	verdictRegression   = "REGRESSION"
	verdictInconclusive = "inconclusive"
)

// gate prints one line per compared row and returns each one's verdict by
// name; ok is false when any row regressed. An inconclusive row says why and
// never fails the gate. A baseline without a calibration spin is compared in
// raw ns.
func gate(cur, base benchHost, rows []gateRow) (ok bool, verdicts map[string]string) {
	curCal, baseCal := cur.CalibrationNs, base.CalibrationNs
	if curCal <= 0 || baseCal <= 0 {
		curCal, baseCal = 1, 1
	}
	ok, verdicts = true, map[string]string{}
	for _, r := range rows {
		if r.cur <= 0 || r.base <= 0 {
			continue
		}
		got, want := r.cur/curCal, r.base/baseCal
		ratio := got / want
		verdict, why := verdictOK, ""
		switch {
		case r.needsSameProcs && cur.GOMAXPROCS != base.GOMAXPROCS:
			verdict = verdictInconclusive
			why = fmt.Sprintf(" (baseline GOMAXPROCS %d, this run %d)", base.GOMAXPROCS, cur.GOMAXPROCS)
		case r.repSpread > gateBudget-1:
			verdict = verdictInconclusive
			why = fmt.Sprintf(" (this run's reps spread %.0f%%)", 100*r.repSpread)
		case ratio > gateBudget:
			verdict = verdictRegression
			ok = false
		}
		verdicts[r.name] = verdict
		fmt.Printf("check %s: %.2f/spin vs baseline %.2f (%.2fx, budget %.2fx): %s%s\n",
			r.name, got, want, ratio, gateBudget, verdict, why)
	}
	return ok, verdicts
}

// finish writes rep as a JSON snapshot when outPath names one — only then:
// the committed snapshot is what CI gates against, and a run that neither
// asked to record nor to judge must not rewrite it — and, when checkPath
// names a baseline snapshot, judges rep against it and exits 1 on a
// regression.
func finish(outPath, checkPath string, rep elasticReport) {
	if outPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "abpbench: marshal report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "abpbench: write %s: %v\n", outPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if checkPath == "" {
		return
	}
	data, err := os.ReadFile(checkPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abpbench: read baseline %s: %v\n", checkPath, err)
		os.Exit(2)
	}
	var base elasticReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "abpbench: parse baseline %s: %v\n", checkPath, err)
		os.Exit(2)
	}
	if ok, _ := elasticGate(rep, base); !ok {
		fmt.Fprintf(os.Stderr, "abpbench: elastic regressed beyond 10%% of %s\n", checkPath)
		os.Exit(1)
	}
}
