package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
	"github.com/dramstudy/rhvpp/internal/analysis/suite"
)

// writeModule materializes a throwaway Go module under a temp dir so the
// driver's go-list/export-data pipeline runs against a hermetic target.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLintSyntheticModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/fixmod\n\ngo 1.24\n",
		// dirty: one detsource hit (wall clock) and one maporder hit
		// (map-order append never sorted).
		"dirty/dirty.go": `package dirty

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

func Collect(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
		// clean: same shapes done right.
		"clean/clean.go": `package clean

import "sort"

func Collect(m map[string]int) []int {
	out := make([]int, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
`,
	})

	findings, err := lint(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+":"+filepath.Base(f.Pos.Filename))
	}
	want := []string{"detsource:dirty.go", "maporder:dirty.go"}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want analyzers %v", got, want)
	}
	// RunAnalyzers sorts by position then analyzer; both hits are in
	// dirty.go with detsource (line 5) before maporder (line 10).
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, f := range findings {
		if strings.Contains(f.Pos.Filename, "clean") {
			t.Errorf("clean package flagged: %+v", f)
		}
	}
}

func TestLintHonorsSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/supmod\n\ngo 1.24\n",
		"a/a.go": `package a

import "time"

//detlint:ignore detsource this package brokers real timestamps by design
func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	findings, err := lint(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("suppressed module still has findings: %+v", findings)
	}
}

// TestVettoolMode drives the built binary through the real `go vet
// -vettool` protocol. The fixture splits a hotalloc finding across two
// packages — an allocating helper and a hot caller — so the test covers
// unitchecker's fact files standing in for the offline driver's FactStore.
func TestVettoolMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and shells out to go vet")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/vetmod\n\ngo 1.24\n",
		"dep/dep.go": `package dep

func Alloc(n int) []int { return make([]int, n) }
`,
		"hot/hot.go": `package hot

import "example.com/vetmod/dep"

//detlint:hotpath witness=BenchmarkHot
func Hot(n int) []int { return dep.Alloc(n) }
`,
	})
	tool := filepath.Join(t.TempDir(), "detlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building detlint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool reported no findings; want a cross-package hotalloc diagnostic\n%s", out)
	}
	if !strings.Contains(string(out), "may allocate") || !strings.Contains(string(out), "hotpath function Hot") {
		t.Errorf("go vet output missing the cross-package hotalloc diagnostic:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}

	buf.Reset()
	in := []detlint.Finding{{Analyzer: "maporder", Message: "boom"}}
	in[0].Pos.Filename = "x.go"
	in[0].Pos.Line = 3
	in[0].Pos.Column = 7
	if err := writeJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 1 || out[0].Analyzer != "maporder" || out[0].Line != 3 || out[0].Column != 7 || out[0].Message != "boom" {
		t.Errorf("round-trip mismatch: %+v", out)
	}
}

// TestWriteSARIF pins the envelope: version/$schema, one run, a rule per
// suite analyzer, and results always an array.
func TestWriteSARIF(t *testing.T) {
	analyzers := suite.All()

	var buf bytes.Buffer
	if err := writeSARIF(&buf, nil, analyzers); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("envelope version/$schema = %q/%q, want 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "detlint" {
		t.Errorf("driver name = %q, want detlint", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(analyzers) {
		t.Errorf("got %d rules, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(analyzers))
	}
	if run.Results == nil || len(run.Results) != 0 {
		t.Errorf("clean run must encode results as an empty array, got %#v", run.Results)
	}
	// The results key must be present even when empty (omitempty would
	// drop it and break strict consumers).
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["runs"].([]any)[0].(map[string]any)["results"]; !ok {
		t.Error("clean SARIF log omits the results array")
	}

	buf.Reset()
	in := []detlint.Finding{{Analyzer: "goshared", Message: "boom"}}
	in[0].Pos.Filename = "runner.go"
	in[0].Pos.Line = 5
	in[0].Pos.Column = 2
	if err := writeSARIF(&buf, in, analyzers); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	res := log.Runs[0].Results
	if len(res) != 1 || res[0].RuleID != "goshared" || res[0].Level != "warning" || res[0].Message.Text != "boom" {
		t.Fatalf("result mismatch: %+v", res)
	}
	loc := res[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "runner.go" || loc.Region.StartLine != 5 || loc.Region.StartColumn != 2 {
		t.Errorf("location mismatch: %+v", loc)
	}
}
