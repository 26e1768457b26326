package lint

import (
	"slices"
	"strings"
	"testing"
)

func TestOwnerOnly(t *testing.T) { runAnalyzerTest(t, Owner, "owneronly") }
func TestNonBlocking(t *testing.T) {
	runAnalyzerTest(t, onlyMatching(AbpWait, "in //abp:nonblocking function"), "nonblocking")
}
func TestCASLoop(t *testing.T)   { runAnalyzerTest(t, CAS, "casloop") }
func TestHandshake(t *testing.T) { runAnalyzerTest(t, Handshake, "handshake") }
func TestMustCheck(t *testing.T) { runAnalyzerTest(t, MustCheck, "mustcheck") }
func TestAbpRace(t *testing.T)   { runAnalyzerTest(t, AbpRace, "abprace") }
func TestAbpOrder(t *testing.T)  { runAnalyzerTest(t, AbpOrder, "abporder") }
func TestAbpWait(t *testing.T)   { runAnalyzerTest(t, AbpWait, "abpwait") }

// onlyMatching is a with its findings cut down to those whose message
// contains one of substrs: one check of a merged analyzer, for a fixture
// written when that check was an analyzer of its own and which the other
// checks have findings on too (nonblocking's, which abpwait's liveness
// rules also read).
func onlyMatching(a *Analyzer, substrs ...string) *Analyzer {
	return &Analyzer{Name: a.Name, Doc: a.Doc, Run: func(pass *Pass) error {
		err := a.Run(pass)
		pass.diags = slices.DeleteFunc(pass.diags, func(d Diagnostic) bool {
			return !slices.ContainsFunc(substrs, func(s string) bool { return strings.Contains(d.Message, s) })
		})
		return err
	}}
}

// TestSeededWait replays the two liveness bugs this repository shipped —
// the PR-1 lost wakeup (a parked worker's token channel with no sender)
// and the PR-6 invisible backoff nap (a bare time.Sleep a signal cannot
// cut short) — and asserts abpwait reports both classes. The per-class
// counts keep the fixture from degrading into a vacuously passing one:
// if either reaches zero, that historical bug shape would ship unflagged
// again.
func TestSeededWait(t *testing.T) {
	runAnalyzerTest(t, AbpWait, "seededwait")

	pkgs, err := NewLoader().Load("testdata/src/seededwait", ".")
	if err != nil {
		t.Fatal(err)
	}
	naked, missed := 0, 0
	for _, pkg := range pkgs {
		diags, err := Run(AbpWait, pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			switch {
			case strings.Contains(d.Message, "naked wait"):
				naked++
			case strings.Contains(d.Message, "missed signal"):
				missed++
			}
			if !strings.Contains(d.Message, "goroutine (*Worker).loop") {
				t.Errorf("finding not attributed to the worker root:\n%s", d.Message)
			}
		}
	}
	if naked == 0 {
		t.Fatal("abpwait reported no naked wait on the seeded senderless parkCh: the PR-1 lost-wakeup class would ship again")
	}
	if missed == 0 {
		t.Fatal("abpwait reported no missed signal on the seeded bare-sleep backoff: the PR-6 invisible-nap class would ship again")
	}
}

// TestSeededPR1Bug replays, in miniature, the discarded-PushBottom bug that
// PR 1 fixed in sched.(*Pool).submitRoot and asserts that mustcheck now
// catches that bug class mechanically. The // want assertions run through
// the standard harness; the explicit check below additionally guarantees
// the fixture never degrades into an empty (vacuously passing) one.
func TestSeededPR1Bug(t *testing.T) {
	runAnalyzerTest(t, MustCheck, "seeded")

	pkgs, err := NewLoader().Load("testdata/src/seeded", ".")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pkg := range pkgs {
		diags, err := Run(MustCheck, pkg)
		if err != nil {
			t.Fatal(err)
		}
		total += len(diags)
	}
	if total == 0 {
		t.Fatal("mustcheck reported nothing on the seeded PR-1 bug: the submitRoot deadlock class would ship again")
	}
}

// TestSeededRace replays the PR 1 Pool.Stats plain-counter race and
// asserts abprace reports it with both goroutine provenance chains: the
// worker loop's call chain and the external caller's. The explicit checks
// below keep the fixture from degrading into a vacuously passing one.
func TestSeededRace(t *testing.T) {
	runAnalyzerTest(t, AbpRace, "seededrace")

	pkgs, err := NewLoader().Load("testdata/src/seededrace", ".")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pkg := range pkgs {
		diags, err := Run(AbpRace, pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			total++
			for _, wantSub := range []string{
				"goroutine (*Worker).loop",
				"(*Worker).loop -> (*Worker).record",
				"external caller",
				"(*Pool).Stats",
			} {
				if !strings.Contains(d.Message, wantSub) {
					t.Errorf("finding lacks provenance %q:\n%s", wantSub, d.Message)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("abprace reported nothing on the seeded Pool.Stats race: the PR-1 stats bug class would ship again")
	}
}

// TestSeededOrder seeds the over-synchronization blind spot abporder was
// built to close: a gratuitous seq-cst load on a worker hot path whose
// only store is ordered before every fork. abprace must stay SILENT (both
// sides are atomic, which its pair rules accept by definition) while
// abporder must flag the declaration — the two assertions together pin
// the division of labor between the analyzers.
func TestSeededOrder(t *testing.T) {
	runAnalyzerTest(t, AbpOrder, "seededorder")

	pkgs, err := NewLoader().Load("testdata/src/seededorder", ".")
	if err != nil {
		t.Fatal(err)
	}
	orderFindings := 0
	for _, pkg := range pkgs {
		diags, err := Run(AbpOrder, pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			orderFindings++
			if !strings.Contains(d.Message, "plain access suffices") {
				t.Errorf("unexpected abporder finding: %s", d.Message)
			}
		}
		raceDiags, err := Run(AbpRace, pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range raceDiags {
			t.Errorf("abprace should accept the all-atomic fixture, got: %s", d.Message)
		}
	}
	if orderFindings == 0 {
		t.Fatal("abporder reported nothing on the seeded over-synchronization: the gratuitous hot-path seq-cst class would ship again")
	}
}

// TestSuiteCleanOnOwnPackage dogfoods the loader and the full suite on the
// lint package itself: zero findings expected.
func TestSuiteCleanOnOwnPackage(t *testing.T) {
	pkgs, err := NewLoader().Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, a := range All() {
			diags, err := Run(a, pkg)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s: %s", a.Name, pkg.Fset.Position(d.Pos), d.Message)
			}
		}
	}
}
