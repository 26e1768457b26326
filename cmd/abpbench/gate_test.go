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

func elasticCase(doctor func(cur, base *elasticReport)) func() (bool, map[string]string) {
	return func() (bool, map[string]string) {
		cur, base := elasticFixture(), elasticFixture()
		doctor(&cur, &base)
		return elasticGate(cur, base)
	}
}

const (
	multiRow  = "elastic/P=4 per-worker ns/task"
	singleRow = "elastic/P=1 per-worker ns/task"
)

// The ladder phases are gated per worker-ns/task, each failing on its own
// when it slows by more than the 10 % budget per calibration spin; the churn
// phase is reported only. A phase is inconclusive — printed, never a failure
// — when the run's own reps spread wider than the budget, and a multi-worker
// phase also against a baseline from a host with a different GOMAXPROCS. A
// figure absent on either side (an older snapshot, a new phase) gates
// nothing, and a baseline without a calibration spin is compared in raw ns.
func TestElasticCheck(t *testing.T) {
	runGateCases(t, []gateCase{
		{name: "identical", judge: elasticCase(func(_, _ *elasticReport) {}), want: true,
			row: multiRow, verdict: verdictOK},
		{name: "within budget", judge: elasticCase(func(r, _ *elasticReport) { r.Phases[0].PerWorkerNs *= 1.09 }), want: true,
			row: singleRow, verdict: verdictOK},
		{name: "single-worker phase +11%", judge: elasticCase(func(r, _ *elasticReport) { r.Phases[0].PerWorkerNs *= 1.11 }),
			row: singleRow, verdict: verdictRegression},
		{name: "multi-worker phase +11%", judge: elasticCase(func(r, _ *elasticReport) { r.Phases[1].PerWorkerNs *= 1.11 }),
			row: multiRow, verdict: verdictRegression},
		{name: "churn phase is not gated", judge: elasticCase(func(r, _ *elasticReport) { r.Phases[2].PerWorkerNs *= 3 }), want: true,
			row: "elastic/churn per-worker ns/task"},
		{name: "multi-worker phase on a different host shape", judge: elasticCase(func(r, _ *elasticReport) {
			r.GOMAXPROCS = 8
			r.Phases[1].PerWorkerNs *= 3
		}), want: true, row: multiRow, verdict: verdictInconclusive},
		{name: "single-worker phase still gated across host shapes", judge: elasticCase(func(r, _ *elasticReport) {
			r.GOMAXPROCS = 8
			r.Phases[0].PerWorkerNs *= 1.11
		}), row: singleRow, verdict: verdictRegression},
		{name: "+11%, reps within the budget", judge: elasticCase(func(r, _ *elasticReport) {
			r.Phases[1].PerWorkerNs *= 1.11
			r.Phases[1].RepSpread = 0.10
		}), row: multiRow, verdict: verdictRegression},
		{name: "2x, reps too far apart to tell", judge: elasticCase(func(r, _ *elasticReport) {
			r.Phases[1].PerWorkerNs *= 2
			r.Phases[1].RepSpread = 0.62
		}), want: true, row: multiRow, verdict: verdictInconclusive},
		{name: "wide reps excuse no other phase", judge: elasticCase(func(r, _ *elasticReport) {
			r.Phases[1].RepSpread = 0.62
			r.Phases[0].PerWorkerNs *= 1.11
		}), row: singleRow, verdict: verdictRegression},
		{name: "phase absent from the run", judge: elasticCase(func(r, _ *elasticReport) { r.Phases[1].PerWorkerNs = 0 }), want: true,
			row: multiRow},
		{name: "phase absent from the baseline", judge: elasticCase(func(r, _ *elasticReport) {
			r.Phases = append(r.Phases, elasticPhaseRow{Phase: "P=16", Workers: 16, PerWorkerNs: 1e6})
		}), want: true, row: "elastic/P=16 per-worker ns/task"},
		{name: "slower host, same ratio to its spin", judge: elasticCase(func(r, _ *elasticReport) {
			r.CalibrationNs *= 2
			r.Phases[0].PerWorkerNs *= 2
			r.Phases[1].PerWorkerNs *= 2
		}), want: true},
		{name: "faster host hiding a regression", judge: elasticCase(func(r, _ *elasticReport) {
			r.CalibrationNs /= 2
			r.Phases[0].PerWorkerNs *= 0.6 // raw ns fell, but 1.2x per spin
		}), row: singleRow, verdict: verdictRegression},
		{name: "baseline without calibration", judge: elasticCase(func(cur, raw *elasticReport) {
			raw.CalibrationNs = 0
			cur.CalibrationNs = 4 // would halve every normalized figure if honoured
			cur.Phases[0].PerWorkerNs *= 1.11
		}), row: singleRow, verdict: verdictRegression},
	})
}

// A snapshot is written only where -out says: a run given neither -out nor
// -check prints its table and leaves the working directory — the committed
// BENCH_elastic.json, when run from the repository root — alone.
func TestFinishWritesOnlyWhereOutSays(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	finish("", "", elasticFixture())
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("finish without -out left %v behind", left)
	}
	out := filepath.Join(dir, "snap.json")
	finish(out, "", elasticFixture())
	var got elasticReport
	readSnapshot(t, out, &got)
	if got.Experiment != "elastic" || len(got.Phases) != 3 {
		t.Fatalf("the snapshot -out wrote does not read back as the report: %+v", got)
	}
}

// The committed snapshot must parse into the schema the gate keys on, be
// taken on a host that grants parallelism, and gate clean against itself.
func TestCommittedSnapshotsSelfCheck(t *testing.T) {
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
