package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// JSONFinding is one finding in the -json report.
type JSONFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// JSONReport is the document `ksetlint -json` emits: a count plus every
// finding in position order, with paths relative to the linted module root.
type JSONReport struct {
	Count    int           `json:"count"`
	Findings []JSONFinding `json:"findings"`
}

// WriteJSON writes findings as an indented JSON report. root is the linted
// module root; file paths are emitted relative to it (slash-separated) so
// the artifact is stable across checkouts.
func WriteJSON(w io.Writer, findings []Finding, root string) error {
	rep := JSONReport{Count: len(findings), Findings: make([]JSONFinding, 0, len(findings))}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, JSONFinding{
			File: relPath(root, f.Pos.Filename),
			Line: f.Pos.Line,
			Col:  f.Pos.Column,
			Rule: f.Rule,
			Msg:  f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// SARIF 2.1.0 document structure — the subset GitHub code scanning consumes
// to annotate findings inline on pull requests.
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
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
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
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF writes findings as a SARIF 2.1.0 run. The rule table is built
// from the analyzers' declared rules plus the engine's directive-audit rule;
// artifact URIs are relative to root with %SRCROOT% as the base id, which is
// what GitHub's SARIF ingestion resolves against the repository root.
func WriteSARIF(w io.Writer, findings []Finding, analyzers []Analyzer, root string) error {
	var rules []sarifRule
	for _, a := range analyzers {
		for _, r := range a.Rules() {
			rules = append(rules, sarifRule{ID: r.ID, ShortDescription: sarifMessage{Text: r.Doc}})
		}
	}
	allow := AllowRule()
	rules = append(rules, sarifRule{ID: allow.ID, ShortDescription: sarifMessage{Text: allow.Doc}})

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Rule,
			Level:   "error",
			Message: sarifMessage{Text: f.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{
						URI:       relPath(root, f.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "ksetlint",
				InformationURI: "docs/lint.md",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath makes file relative to root in slash form; when that fails (the
// file is outside root, or paths mix absolute and relative) the cleaned
// original is used.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && filepath.IsLocal(rel) {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filepath.Clean(file))
}
