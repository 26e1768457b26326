package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"worksteal/internal/lint"
)

const (
	// seededDir is the lint fixture that reintroduces the PR-1 discarded
	// PushBottom; the full suite reports exactly one mustcheck finding there.
	seededDir = "../../internal/lint/testdata/src/seeded"
	// raceDir is the lint fixture replaying the PR-1 Pool.Stats
	// plain-counter race; -only abprace reports exactly one finding there,
	// carrying both goroutine provenance chains.
	raceDir = "../../internal/lint/testdata/src/seededrace"
	// seededWaitDir is the seeded liveness fixture (naked wait, missed
	// signal).
	seededWaitDir = "../../internal/lint/testdata/src/seededwait"
)

// provenance lists the substrings every rendering of the seeded race
// finding must contain: the racing field, the worker goroutine's call
// chain, and the external caller's.
var provenance = []string{
	"possible data race on field steals",
	"goroutine (*Worker).loop",
	"(*Worker).loop -> (*Worker).record",
	"external caller",
	"(*Pool).Stats",
}

// runCLI invokes the command in process and returns its exit status and
// captured streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestExitCleanIsZero(t *testing.T) {
	// The command's own package carries no contract violations.
	code, stdout, stderr := runCLI(t, ".")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed findings: %q", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-C", seededDir, ".")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "PushBottom is discarded") {
		t.Errorf("finding line missing from stdout: %q", stdout)
	}
	if !strings.Contains(stdout, "(mustcheck)") {
		t.Errorf("finding line does not name its analyzer: %q", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("summary missing from stderr: %q", stderr)
	}
}

func TestExitOperationalErrorIsTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown analyzer", []string{"-only", "nosuch", "."}, "unknown analyzer"},
		{"bad flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"load failure", []string{"./no/such/dir"}, "abplint:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}

// The name is from when the suite had twelve analyzers; two pairs were
// merged, then atomicmix and nonblocking folded into abporder and abpwait,
// then abplayout was deleted (EXPERIMENTS.md E40), and the name stayed.
func TestListNamesAllTwelve(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	all := lint.All()
	if len(all) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(all))
	}
	for _, a := range all {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

// sarifLog is the slice of the SARIF 2.1.0 shape the tests inspect.
type sarifLog struct {
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name string `json:"name"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

func TestSARIFToFileAndStdout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abplint.sarif")
	code, stdout, _ := runCLI(t, "-sarif", path, "-C", seededDir, ".")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	// Text findings still go to stdout when SARIF targets a file.
	if !strings.Contains(stdout, "(mustcheck)") {
		t.Errorf("text findings suppressed despite -sarif targeting a file: %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF file does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("unexpected SARIF shape: %s", data)
	}
	if name := log.Runs[0].Tool.Driver.Name; name != "abplint" {
		t.Errorf("SARIF driver name = %q, want abplint", name)
	}
	res := log.Runs[0].Results[0]
	if res.RuleID != "mustcheck" || res.Locations[0].PhysicalLocation.ArtifactLocation.URI != "seeded.go" {
		t.Errorf("unexpected result %+v", res)
	}

	// With -sarif -, the log goes to stdout and replaces the text lines.
	code, stdout, _ = runCLI(t, "-sarif", "-", "-C", seededDir, ".")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif - stdout is not pure SARIF: %v\n%s", err, stdout)
	}
}

// TestSeededRaceEveryRendering restricts the suite to the race detector
// with -only and checks that the seeded finding's two provenance chains
// survive each output format.
func TestSeededRaceEveryRendering(t *testing.T) {
	text := func(t *testing.T, stdout string) string {
		if !strings.Contains(stdout, "(abprace)") {
			t.Errorf("finding line does not name its analyzer: %q", stdout)
		}
		return stdout
	}
	sarifMsg := func(t *testing.T, stdout string) string {
		var log sarifLog
		if err := json.Unmarshal([]byte(stdout), &log); err != nil {
			t.Fatalf("-sarif - stdout is not pure SARIF: %v\n%s", err, stdout)
		}
		if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
			t.Fatalf("unexpected SARIF shape: %s", stdout)
		}
		res := log.Runs[0].Results[0]
		if res.RuleID != "abprace" || res.Locations[0].PhysicalLocation.ArtifactLocation.URI != "seededrace.go" {
			t.Errorf("unexpected result %+v", res)
		}
		return res.Message.Text
	}
	for _, tc := range []struct {
		name    string
		flags   []string
		message func(*testing.T, string) string
	}{
		{"text", nil, text},
		{"sarif", []string{"-sarif", "-"}, sarifMsg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-only", "abprace", "-C", raceDir}, tc.flags...)
			code, stdout, stderr := runCLI(t, append(args, ".")...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, "1 finding(s)") {
				t.Errorf("summary missing from stderr: %q", stderr)
			}
			msg := tc.message(t, stdout)
			for _, want := range provenance {
				if !strings.Contains(msg, want) {
					t.Errorf("%s rendering lacks %q:\n%s", tc.name, want, msg)
				}
			}
		})
	}
}

// TestLivenessFindingsFlowThrough runs the full suite over the seeded
// liveness fixture: the abpwait findings must surface through this front
// end with their analyzer name attached, alongside the rest of the suite.
func TestLivenessFindingsFlowThrough(t *testing.T) {
	code, stdout, _ := runCLI(t, "-sarif", "-", "-C", seededWaitDir, ".")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s", code, stdout)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(stdout), &log); err != nil || len(log.Runs) != 1 {
		t.Fatalf("-sarif - stdout is not one SARIF run: %v\n%s", err, stdout)
	}
	waitFindings := 0
	for _, res := range log.Runs[0].Results {
		if res.RuleID == "abpwait" {
			waitFindings++
		}
	}
	if waitFindings < 2 {
		t.Fatalf("abpwait findings = %d, want >= 2 (naked wait and missed signal): %s",
			waitFindings, stdout)
	}
}

// TestUnusedIgnoresScopedByOnly: the fixture holds three stale directives.
// The full suite judges all three; restricted to abprace, the
// //abp:race-ignore is judged and the //abp:ignore mustcheck is not —
// mustcheck did not run, so the staleness of the directive addressed to it
// is undecidable there. The //abp:ignore atomicmix names no analyzer of
// the suite, so every run reports it, whatever -only selected.
func TestUnusedIgnoresScopedByOnly(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-unused-ignores", "-C", "testdata/unusedignore", ".")
	if code != 1 {
		t.Fatalf("full suite: exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "suppresses nothing") || !strings.Contains(stdout, "(unused-ignore)") {
		t.Errorf("stale directives not reported: %q", stdout)
	}
	if !strings.Contains(stdout, "//abp:race-ignore") || !strings.Contains(stdout, "mustcheck") {
		t.Errorf("full suite did not judge both stale directives: %q", stdout)
	}
	const unknown = "//abp:ignore atomicmix names no analyzer"
	if !strings.Contains(stdout, unknown) {
		t.Errorf("full suite did not report the directive naming no analyzer: %q", stdout)
	}

	code, stdout, stderr = runCLI(t, "-only", "abprace", "-unused-ignores", "-C", "testdata/unusedignore", ".")
	if code != 1 {
		t.Fatalf("-only abprace: exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "//abp:race-ignore") || !strings.Contains(stdout, "suppresses nothing") {
		t.Errorf("stale race directive not reported: %q", stdout)
	}
	if strings.Contains(stdout, "mustcheck") {
		t.Errorf("-only abprace judged a directive outside the analyzers that ran: %q", stdout)
	}
	if !strings.Contains(stdout, unknown) {
		t.Errorf("-only abprace did not report the directive naming no analyzer: %q", stdout)
	}
}
