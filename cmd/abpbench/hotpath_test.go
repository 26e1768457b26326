package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeSnapshot stores rep as a baseline file the -check comparators read.
func writeSnapshot(t *testing.T, rep any) string {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func hotpathFixture() hotpathReport {
	return hotpathReport{
		Experiment:    "hotpath",
		GOMAXPROCS:    2,
		CalibrationNs: 2,
		Ops: []hotpathOpRow{
			{Deque: "abp", PushPopNs: 15, StealNs: 14, MultiStealNs: 40},
			{Deque: "chaselev", PushPopNs: 16, StealNs: 15, MultiStealNs: 42},
		},
		Contended: &hotpathContended{Thieves: 2, Producers: 2, SubmitNs: 500},
	}
}

// The gate keys rows by deque alone; each gated column — push+pop and
// contended steal per deque, contended submit once — fails on its own when
// it slows by more than the 10 % budget, and the ungated single-thief steal
// column never does. Contended submit is inconclusive, not failed, when the
// run's own reps spread wider than the budget.
func TestHotpathCheck(t *testing.T) {
	base := writeSnapshot(t, hotpathFixture())
	for _, tc := range []struct {
		name   string
		doctor func(*hotpathReport)
		want   bool
	}{
		{"identical", func(*hotpathReport) {}, true},
		{"within budget", func(r *hotpathReport) { r.Ops[0].PushPopNs *= 1.09 }, true},
		{"abp push+pop +11%", func(r *hotpathReport) { r.Ops[0].PushPopNs *= 1.11 }, false},
		{"chaselev push+pop +11%", func(r *hotpathReport) { r.Ops[1].PushPopNs *= 1.11 }, false},
		{"contended steal +11%", func(r *hotpathReport) { r.Ops[1].MultiStealNs *= 1.11 }, false},
		{"contended submit +11%", func(r *hotpathReport) { r.Contended.SubmitNs *= 1.11 }, false},
		{"contended submit +11%, reps within the budget", func(r *hotpathReport) {
			r.Contended.SubmitNs *= 1.11
			r.Contended.SubmitRepSpread = 0.10
		}, false},
		{"contended submit 2x, reps too far apart to tell", func(r *hotpathReport) {
			r.Contended.SubmitNs *= 2
			r.Contended.SubmitRepSpread = 0.62
		}, true},
		{"wide submit reps excuse no other column", func(r *hotpathReport) {
			r.Contended.SubmitRepSpread = 0.62
			r.Ops[0].PushPopNs *= 1.11
		}, false},
		{"ungated steal column", func(r *hotpathReport) { r.Ops[0].StealNs *= 3 }, true},
		{"column absent in the run", func(r *hotpathReport) { r.Ops[0].MultiStealNs = 0 }, true},
		{"contended block absent in the run", func(r *hotpathReport) { r.Contended = nil }, true},
		{"deque absent from the baseline", func(r *hotpathReport) {
			r.Ops = append(r.Ops, hotpathOpRow{Deque: "other", PushPopNs: 1e6, MultiStealNs: 1e6})
		}, true},
		{"slower host, same ratio to its spin", func(r *hotpathReport) {
			r.CalibrationNs *= 2
			for i := range r.Ops {
				r.Ops[i].PushPopNs *= 2
				r.Ops[i].MultiStealNs *= 2
			}
			r.Contended.SubmitNs *= 2
		}, true},
		{"faster host hiding a regression", func(r *hotpathReport) {
			r.CalibrationNs /= 2
			r.Ops[0].PushPopNs *= 0.6 // raw ns fell, but 1.2x per spin
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := hotpathFixture()
			tc.doctor(&cur)
			if got := hotpathCheck(cur, base); got != tc.want {
				t.Fatalf("hotpathCheck = %v, want %v", got, tc.want)
			}
		})
	}
}

// A baseline that lacks a column (an older snapshot) gates nothing on it,
// and one without a calibration spin falls back to raw nanoseconds.
func TestHotpathCheckOlderBaselines(t *testing.T) {
	old := hotpathFixture()
	old.Ops[0].MultiStealNs = 0
	old.Contended = nil
	cur := hotpathFixture()
	cur.Ops[0].MultiStealNs *= 5
	cur.Contended.SubmitNs *= 5
	if !hotpathCheck(cur, writeSnapshot(t, old)) {
		t.Fatal("columns absent from the baseline were gated")
	}

	raw := hotpathFixture()
	raw.CalibrationNs = 0
	cur = hotpathFixture()
	cur.CalibrationNs = 4 // would halve every normalized figure if honoured
	cur.Ops[0].PushPopNs *= 1.11
	if hotpathCheck(cur, writeSnapshot(t, raw)) {
		t.Fatal("a baseline without calibration did not fall back to raw ns")
	}
}

func elasticFixture() elasticReport {
	return elasticReport{
		Experiment:    "elastic",
		GOMAXPROCS:    2,
		CalibrationNs: 2,
		Phases: []elasticPhaseRow{
			{Phase: "P=1", Workers: 1, PerWorkerNs: 1000},
			{Phase: "P=4", Workers: 4, PerWorkerNs: 1200},
			{Phase: "churn", Workers: 0, PerWorkerNs: 1500},
		},
	}
}

// The ladder phases are gated per worker-ns/task; the churn phase is
// reported only, and multi-worker phases are compared only between hosts
// with the same GOMAXPROCS.
func TestElasticCheck(t *testing.T) {
	base := writeSnapshot(t, elasticFixture())
	for _, tc := range []struct {
		name   string
		doctor func(*elasticReport)
		want   bool
	}{
		{"identical", func(*elasticReport) {}, true},
		{"single-worker phase +11%", func(r *elasticReport) { r.Phases[0].PerWorkerNs *= 1.11 }, false},
		{"multi-worker phase +11%", func(r *elasticReport) { r.Phases[1].PerWorkerNs *= 1.11 }, false},
		{"churn phase is not gated", func(r *elasticReport) { r.Phases[2].PerWorkerNs *= 3 }, true},
		{"multi-worker phase on a different host shape", func(r *elasticReport) {
			r.GOMAXPROCS = 8
			r.Phases[1].PerWorkerNs *= 3
		}, true},
		{"single-worker phase still gated across host shapes", func(r *elasticReport) {
			r.GOMAXPROCS = 8
			r.Phases[0].PerWorkerNs *= 1.11
		}, false},
		{"phase absent from the baseline", func(r *elasticReport) {
			r.Phases = append(r.Phases, elasticPhaseRow{Phase: "P=16", Workers: 16, PerWorkerNs: 1e6})
		}, true},
		{"slower host, same ratio to its spin", func(r *elasticReport) {
			r.CalibrationNs *= 2
			r.Phases[0].PerWorkerNs *= 2
			r.Phases[1].PerWorkerNs *= 2
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := elasticFixture()
			tc.doctor(&cur)
			if got := elasticCheck(cur, base); got != tc.want {
				t.Fatalf("elasticCheck = %v, want %v", got, tc.want)
			}
		})
	}
}

// The committed snapshots must parse into the schema the comparators key
// on, and gate clean against themselves.
func TestCommittedSnapshotsSelfCheck(t *testing.T) {
	var hp hotpathReport
	readSnapshot(t, "../../BENCH_hotpath.json", &hp)
	if len(hp.Ops) == 0 {
		t.Fatal("BENCH_hotpath.json has no ops rows")
	}
	seen := map[string]bool{}
	for _, row := range hp.Ops {
		if row.Deque == "" || seen[row.Deque] {
			t.Fatalf("BENCH_hotpath.json ops rows are not one per deque: %+v", hp.Ops)
		}
		seen[row.Deque] = true
	}
	if !hotpathCheck(hp, "../../BENCH_hotpath.json") {
		t.Fatal("BENCH_hotpath.json fails its own gate")
	}

	var el elasticReport
	readSnapshot(t, "../../BENCH_elastic.json", &el)
	if len(el.Phases) == 0 {
		t.Fatal("BENCH_elastic.json has no phases")
	}
	if !elasticCheck(el, "../../BENCH_elastic.json") {
		t.Fatal("BENCH_elastic.json fails its own gate")
	}
}

func readSnapshot(t *testing.T, path string, into any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
