package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"strings"
)

// This file is abplint's output layer: a position-resolved Finding record
// and a minimal SARIF 2.1.0 emitter for code-scanning upload. The emitter
// lives in the library, not the command, so tests can round-trip it without
// spawning processes.

// A Finding is one diagnostic resolved to a concrete location. File is
// slash-separated and relative to the module root when the position falls
// under it, so reports are stable across checkouts.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Column   int
	Message  string
}

// String renders the finding in the classic vet line format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Column, f.Message, f.Analyzer)
}

// MakeFinding resolves a diagnostic position against fset, relativizing the
// file path to root (when non-empty and containing the file).
func MakeFinding(analyzer string, fset *token.FileSet, pos token.Pos, message, root string) Finding {
	p := fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		File:     relPath(root, p.Filename),
		Line:     p.Line,
		Column:   p.Column,
		Message:  message,
	}
}

func relPath(root, file string) string {
	if root != "" {
		if r, err := filepath.Rel(root, file); err == nil && r != ".." && !strings.HasPrefix(r, ".."+string(filepath.Separator)) {
			return filepath.ToSlash(r)
		}
	}
	return filepath.ToSlash(file)
}

// --- SARIF ---

// The sarif* types model the minimal slice of SARIF 2.1.0 that GitHub code
// scanning consumes: one run, one rule per analyzer, one result per
// finding with a single physical location.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes the findings as a SARIF 2.1.0 log under the given tool
// name. analyzers supplies the rule catalog (every analyzer that ran, found
// something or not, plus the synthetic unused-ignore rule when the caller
// includes it).
func WriteSARIF(w io.Writer, tool string, analyzers []*Analyzer, findings []Finding) error {
	driver := sarifDriver{
		Name:  tool,
		Rules: make([]sarifRule, 0, len(analyzers)),
	}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.File, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// UnusedIgnoreAnalyzer is the synthetic rule under which stale //abp:ignore
// directives are reported by abplint -unused-ignores. It is not part of
// All(): it has no Run of its own — the evidence comes from running the
// real suite and seeing which directives suppressed nothing.
var UnusedIgnoreAnalyzer = &Analyzer{
	Name: "unused-ignore",
	Doc:  "reports //abp:ignore directives that no longer suppress any finding or that name no analyzer",
}

// UnusedIgnoreFinding converts a stale directive into a Finding under the
// unused-ignore rule; known says whether the analyzer it names exists.
func UnusedIgnoreFinding(d *IgnoreDirective, root string, known bool) Finding {
	form := d.Form
	if form == "" {
		form = "//abp:ignore " + d.Analyzer
	}
	why := "suppresses nothing"
	if !known {
		why = "names no analyzer"
	}
	return Finding{
		Analyzer: UnusedIgnoreAnalyzer.Name,
		File:     relPath(root, d.File),
		Line:     d.Line,
		Column:   1,
		Message: fmt.Sprintf("%s %s: delete the stale directive before it hides a future regression",
			form, why),
	}
}
