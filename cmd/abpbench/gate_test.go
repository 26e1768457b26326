package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// gateCase is one doctored comparison through the shared gate: judge builds
// a run and a baseline from the fixtures, doctors them, and gates one
// against the other.
type gateCase struct {
	name  string
	judge func() (bool, map[string]string)
	want  bool
	// row, when set, names one row whose verdict is pinned too; the empty
	// verdict says the row was not compared at all.
	row, verdict string
}

func runGateCases(t *testing.T, cases []gateCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok, verdicts := tc.judge()
			if ok != tc.want {
				t.Errorf("gate passed = %v, want %v (verdicts %v)", ok, tc.want, verdicts)
			}
			if tc.row != "" && verdicts[tc.row] != tc.verdict {
				t.Errorf("row %q read %q, want %q (verdicts %v)", tc.row, verdicts[tc.row], tc.verdict, verdicts)
			}
		})
	}
}

func hotpathFixture() hotpathReport {
	return hotpathReport{
		Experiment: "hotpath",
		benchHost:  benchHost{GOMAXPROCS: 2, CalibrationNs: 2},
		Ops: []hotpathOpRow{
			{Deque: "abp", PushPopNs: 15, StealNs: 14, MultiStealNs: 40},
			{Deque: "chaselev", PushPopNs: 16, StealNs: 15, MultiStealNs: 42},
		},
		Contended: &hotpathContended{Thieves: 2, Producers: 2, SubmitNs: 500},
	}
}

func hotpathCase(doctor func(cur, base *hotpathReport)) func() (bool, map[string]string) {
	return func() (bool, map[string]string) {
		cur, base := hotpathFixture(), hotpathFixture()
		doctor(&cur, &base)
		return hotpathGate(cur, base)
	}
}

func elasticFixture() elasticReport {
	return elasticReport{
		Experiment: "elastic",
		benchHost:  benchHost{GOMAXPROCS: 2, CalibrationNs: 2},
		Phases: []elasticPhaseRow{
			{Phase: "P=1", Workers: 1, PerWorkerNs: 1000},
			{Phase: "P=4", Workers: 4, PerWorkerNs: 1200},
			{Phase: "churn", Workers: 0, PerWorkerNs: 1500},
		},
	}
}

func elasticCase(doctor func(cur *elasticReport)) func() (bool, map[string]string) {
	return func() (bool, map[string]string) {
		cur := elasticFixture()
		doctor(&cur)
		return elasticGate(cur, elasticFixture())
	}
}

const (
	submitRow = "contended submit"
	multiRow  = "elastic/P=4 per-worker ns/task"
	singleRow = "elastic/P=1 per-worker ns/task"
)

// The hotpath rows are keyed by deque alone; each gated column — push+pop
// and contended steal per deque, contended submit once — fails on its own
// when it slows by more than the 10 % budget, and the ungated single-thief
// steal column never does. Contended submit is inconclusive, not failed, when
// the run's own reps spread wider than the budget.
func TestHotpathCheck(t *testing.T) {
	runGateCases(t, []gateCase{
		{name: "identical", judge: hotpathCase(func(_, _ *hotpathReport) {}), want: true,
			row: submitRow, verdict: verdictOK},
		{name: "within budget", judge: hotpathCase(func(r, _ *hotpathReport) { r.Ops[0].PushPopNs *= 1.09 }), want: true,
			row: "abp push+pop", verdict: verdictOK},
		{name: "abp push+pop +11%", judge: hotpathCase(func(r, _ *hotpathReport) { r.Ops[0].PushPopNs *= 1.11 }),
			row: "abp push+pop", verdict: verdictRegression},
		{name: "chaselev push+pop +11%", judge: hotpathCase(func(r, _ *hotpathReport) { r.Ops[1].PushPopNs *= 1.11 }),
			row: "chaselev push+pop", verdict: verdictRegression},
		{name: "contended steal +11%", judge: hotpathCase(func(r, _ *hotpathReport) { r.Ops[1].MultiStealNs *= 1.11 }),
			row: "chaselev contended steal", verdict: verdictRegression},
		{name: "contended submit +11%", judge: hotpathCase(func(r, _ *hotpathReport) { r.Contended.SubmitNs *= 1.11 }),
			row: submitRow, verdict: verdictRegression},
		{name: "contended submit +11%, reps within the budget", judge: hotpathCase(func(r, _ *hotpathReport) {
			r.Contended.SubmitNs *= 1.11
			r.Contended.SubmitRepSpread = 0.10
		}), row: submitRow, verdict: verdictRegression},
		{name: "contended submit 2x, reps too far apart to tell", judge: hotpathCase(func(r, _ *hotpathReport) {
			r.Contended.SubmitNs *= 2
			r.Contended.SubmitRepSpread = 0.62
		}), want: true, row: submitRow, verdict: verdictInconclusive},
		{name: "wide submit reps excuse no other column", judge: hotpathCase(func(r, _ *hotpathReport) {
			r.Contended.SubmitRepSpread = 0.62
			r.Ops[0].PushPopNs *= 1.11
		}), row: "abp push+pop", verdict: verdictRegression},
		{name: "ungated steal column", judge: hotpathCase(func(r, _ *hotpathReport) { r.Ops[0].StealNs *= 3 }), want: true},
		{name: "column absent in the run", judge: hotpathCase(func(r, _ *hotpathReport) { r.Ops[0].MultiStealNs = 0 }), want: true,
			row: "abp contended steal"},
		{name: "contended block absent in the run", judge: hotpathCase(func(r, _ *hotpathReport) { r.Contended = nil }), want: true,
			row: submitRow},
		{name: "deque absent from the baseline", judge: hotpathCase(func(r, _ *hotpathReport) {
			r.Ops = append(r.Ops, hotpathOpRow{Deque: "other", PushPopNs: 1e6, MultiStealNs: 1e6})
		}), want: true, row: "other push+pop"},
		{name: "slower host, same ratio to its spin", judge: hotpathCase(func(r, _ *hotpathReport) {
			r.CalibrationNs *= 2
			for i := range r.Ops {
				r.Ops[i].PushPopNs *= 2
				r.Ops[i].MultiStealNs *= 2
			}
			r.Contended.SubmitNs *= 2
		}), want: true},
		{name: "faster host hiding a regression", judge: hotpathCase(func(r, _ *hotpathReport) {
			r.CalibrationNs /= 2
			r.Ops[0].PushPopNs *= 0.6 // raw ns fell, but 1.2x per spin
		}), row: "abp push+pop", verdict: verdictRegression},
	})
}

// A baseline that lacks a column (an older snapshot) gates nothing on it,
// and one without a calibration spin falls back to raw nanoseconds.
func TestHotpathCheckOlderBaselines(t *testing.T) {
	runGateCases(t, []gateCase{
		{name: "columns absent from the baseline", judge: hotpathCase(func(cur, old *hotpathReport) {
			old.Ops[0].MultiStealNs = 0
			old.Contended = nil
			cur.Ops[0].MultiStealNs *= 5
			cur.Contended.SubmitNs *= 5
		}), want: true, row: "abp contended steal"},
		{name: "baseline without calibration", judge: hotpathCase(func(cur, raw *hotpathReport) {
			raw.CalibrationNs = 0
			cur.CalibrationNs = 4 // would halve every normalized figure if honoured
			cur.Ops[0].PushPopNs *= 1.11
		}), row: "abp push+pop", verdict: verdictRegression},
	})
}

// The ladder phases are gated per worker-ns/task; the churn phase is
// reported only, and a multi-worker phase is inconclusive — printed, never a
// failure — against a baseline from a host with a different GOMAXPROCS.
func TestElasticCheck(t *testing.T) {
	runGateCases(t, []gateCase{
		{name: "identical", judge: elasticCase(func(*elasticReport) {}), want: true,
			row: multiRow, verdict: verdictOK},
		{name: "single-worker phase +11%", judge: elasticCase(func(r *elasticReport) { r.Phases[0].PerWorkerNs *= 1.11 }),
			row: singleRow, verdict: verdictRegression},
		{name: "multi-worker phase +11%", judge: elasticCase(func(r *elasticReport) { r.Phases[1].PerWorkerNs *= 1.11 }),
			row: multiRow, verdict: verdictRegression},
		{name: "churn phase is not gated", judge: elasticCase(func(r *elasticReport) { r.Phases[2].PerWorkerNs *= 3 }), want: true,
			row: "elastic/churn per-worker ns/task"},
		{name: "multi-worker phase on a different host shape", judge: elasticCase(func(r *elasticReport) {
			r.GOMAXPROCS = 8
			r.Phases[1].PerWorkerNs *= 3
		}), want: true, row: multiRow, verdict: verdictInconclusive},
		{name: "single-worker phase still gated across host shapes", judge: elasticCase(func(r *elasticReport) {
			r.GOMAXPROCS = 8
			r.Phases[0].PerWorkerNs *= 1.11
		}), row: singleRow, verdict: verdictRegression},
		{name: "phase absent from the baseline", judge: elasticCase(func(r *elasticReport) {
			r.Phases = append(r.Phases, elasticPhaseRow{Phase: "P=16", Workers: 16, PerWorkerNs: 1e6})
		}), want: true, row: "elastic/P=16 per-worker ns/task"},
		{name: "slower host, same ratio to its spin", judge: elasticCase(func(r *elasticReport) {
			r.CalibrationNs *= 2
			r.Phases[0].PerWorkerNs *= 2
			r.Phases[1].PerWorkerNs *= 2
		}), want: true},
	})
}

// The committed snapshots must parse into the schema the gates key on, be
// taken on a host that grants parallelism, and gate clean against
// themselves.
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
	if ok, _ := hotpathGate(hp, hp); !ok {
		t.Fatal("BENCH_hotpath.json fails its own gate")
	}

	var el elasticReport
	readSnapshot(t, "../../BENCH_elastic.json", &el)
	if len(el.Phases) == 0 {
		t.Fatal("BENCH_elastic.json has no phases")
	}
	if ok, _ := elasticGate(el, el); !ok {
		t.Fatal("BENCH_elastic.json fails its own gate")
	}

	// A snapshot from a serial host is flat across the fleet ladder and
	// records no steal: it gates nothing about parallelism.
	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed BENCH_*.json found (%v)", err)
	}
	for _, path := range committed {
		var host benchHost
		readSnapshot(t, path, &host)
		if host.GOMAXPROCS < 2 {
			t.Errorf("%s was taken at GOMAXPROCS=%d, want at least 2", path, host.GOMAXPROCS)
		}
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
