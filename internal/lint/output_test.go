package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{
		{
			Pos:  token.Position{Filename: filepath.Join("root", "internal", "wire", "codec.go"), Line: 3, Column: 7},
			Rule: "errflow.unchecked",
			Msg:  "error from w.Write() is dropped; check it or assign to _ to document the discard",
		},
		{
			Pos:  token.Position{Filename: filepath.Join("root", "cmd", "ksetd", "main.go"), Line: 11, Column: 2},
			Rule: "goroutinelife.leak",
			Msg:  "go statement with no shutdown path",
		},
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleFindings(), "root"); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rep.Count != 2 || len(rep.Findings) != 2 {
		t.Fatalf("count = %d, findings = %d, want 2/2", rep.Count, len(rep.Findings))
	}
	first := rep.Findings[0]
	if first.File != "internal/wire/codec.go" || first.Line != 3 || first.Col != 7 {
		t.Errorf("first finding position = %+v, want internal/wire/codec.go:3:7", first)
	}
	if first.Rule != "errflow.unchecked" {
		t.Errorf("rule = %q", first.Rule)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil, "."); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Count != 0 || rep.Findings == nil {
		t.Errorf("empty report should have count 0 and a non-null findings array: %s", buf.String())
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sampleFindings(), DefaultAnalyzers(), "root"); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version = %q, runs = %d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ksetlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// Every rule the suite can emit must be declared, including the
	// directive audit.
	declared := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		declared[r.ID] = true
	}
	for _, id := range []string{
		"determinism.time", "maporder.range", "prngflow.seed",
		"lockdiscipline.blocking", "errflow.unchecked",
		"goroutinelife.leak", "lockheldio.io", "lint.allow",
	} {
		if !declared[id] {
			t.Errorf("rule %q missing from SARIF rule table", id)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/wire/codec.go" || loc.Region.StartLine != 3 {
		t.Errorf("location = %+v", loc)
	}
}

func TestRelPathOutsideRoot(t *testing.T) {
	got := relPath(filepath.Join("a", "b"), filepath.Join("c", "d.go"))
	if strings.Contains(got, "\\") || got != "c/d.go" {
		t.Errorf("relPath fallback = %q, want c/d.go", got)
	}
}
