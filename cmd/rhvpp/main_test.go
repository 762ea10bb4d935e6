package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp"
)

// TestMain doubles as the shard subprocess for the ProcRunner tests: when
// re-executed with RHVPP_TEST_SHARD_EXEC=1, the test binary behaves like
// `rhvpp <args>` instead of running the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("RHVPP_TEST_SHARD_EXEC") == "1" {
		if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rhvpp:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestListExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table3", "fig5", "fig10a", "ext-temp"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
	// The listing carries titles and paper sections from the descriptors.
	for _, want := range []string{"Module RowHammer characteristics", "§5, Table 3", "rowhammer"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing descriptor text %q:\n%s", want, out)
		}
	}
}

func TestMissingExperimentFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), nil, &buf); err == nil {
		t.Error("missing -exp accepted")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "nope"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table2", "-format", "yaml"}, &buf); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestUnknownModuleRejectedUpFront(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-exp", "table2", "-modules", "B3,QQ"}, &buf)
	if err == nil {
		t.Fatal("unknown module accepted")
	}
	if !strings.Contains(err.Error(), "QQ") {
		t.Errorf("error does not name the unknown module: %v", err)
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "16.8 fF") {
		t.Errorf("table2 output wrong:\n%s", buf.String())
	}
}

func TestRunTable2JSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table2", "-format", "json"}, &buf); err != nil {
		t.Fatal(err)
	}
	// Skip the "== table2 ==" banner, then expect one JSON object.
	out := buf.String()
	idx := strings.Index(out, "\n")
	var el struct {
		Kind    string     `json:"kind"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out[idx+1:]), &el); err != nil {
		t.Fatalf("output after banner is not JSON: %v\n%s", err, out)
	}
	if el.Kind != "table" || len(el.Rows) == 0 {
		t.Errorf("unexpected JSON element: %+v", el)
	}
}

func TestRunScopedExperimentWithFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-exp", "summary", "-modules", "B3", "-rows", "3",
		"-chunks", "2", "-stride", "4", "-seed", "9", "-jobs", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HCfirst") {
		t.Errorf("summary output wrong:\n%s", buf.String())
	}
}

func TestOutDirWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table1", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "272") {
		t.Error("written file missing content")
	}
}

func TestOutDirUsesFormatExtension(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table1", "-out", dir, "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Mfr,#DIMMs") {
		t.Errorf("CSV output missing header:\n%s", data)
	}
}

// shardFlags is the scoped campaign the CLI shard tests run: one study,
// two small modules.
func shardFlags(extra ...string) []string {
	return append([]string{"-exp", "cv", "-modules", "B3,C0", "-rows", "3",
		"-chunks", "2", "-stride", "4"}, extra...)
}

func TestShardEmitsArtifactAndMergeRenders(t *testing.T) {
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.json")
	s1 := filepath.Join(dir, "s1.json")
	var buf bytes.Buffer
	if err := run(t.Context(), shardFlags("-shard", "0/2", "-artifact", s0), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote "+s0) {
		t.Errorf("shard run should report the artifact path:\n%s", buf.String())
	}
	if err := run(t.Context(), shardFlags("-shard", "1/2", "-artifact", s1), &buf); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("shard dir should hold exactly the two artifacts, got %v", entries)
	}

	// The merged rendering matches a direct single-process run.
	var direct bytes.Buffer
	if err := run(t.Context(), shardFlags(), &direct); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := run(t.Context(), []string{"merge", "-exp", "cv", s0, s1}, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.String() != direct.String() {
		t.Errorf("merge output differs from direct run:\n--- merge ---\n%s\n--- direct ---\n%s",
			merged.String(), direct.String())
	}
}

func TestShardValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), shardFlags("-shard", "2/2"), &buf); err == nil {
		t.Error("out-of-range shard accepted")
	}
	for _, spec := range []string{"nope", "1/2/3", "1/2 ", "1/", "/2", "0x1/2"} {
		if err := run(t.Context(), shardFlags("-shard", spec), &buf); err == nil {
			t.Errorf("malformed shard spec %q accepted", spec)
		}
	}
	if err := run(t.Context(), []string{"-exp", "table2", "-full", "-preset", "golden"}, &buf); err == nil {
		t.Error("contradictory -full -preset accepted")
	}
	// Flags that would be silently dead in shard mode are rejected.
	for _, extra := range [][]string{
		{"-format", "json"}, {"-out", "/tmp/x"}, {"-procs", "2"},
	} {
		args := append(shardFlags("-shard", "0/2"), extra...)
		if err := run(t.Context(), args, &buf); err == nil {
			t.Errorf("-shard with %v accepted", extra)
		}
	}
	// ...and so are their render-mode inverses.
	if err := run(t.Context(), shardFlags("-artifact", "/tmp/x.json"), &buf); err == nil {
		t.Error("-artifact without -shard accepted")
	}
	if err := run(t.Context(), shardFlags("-procs", "-4"), &buf); err == nil {
		t.Error("negative -procs accepted")
	}
	// An experiment with no shardable studies cannot be sharded.
	if err := run(t.Context(), []string{"-exp", "table1", "-shard", "0/2"}, &buf); err == nil {
		t.Error("shardless experiment accepted for -shard")
	}
}

// TestShardCanceledLeavesNoArtifact is the clean-interrupt satellite: a
// canceled shard run exits with the context error and writes nothing.
func TestShardCanceledLeavesNoArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var buf bytes.Buffer
	if err := run(ctx, shardFlags("-shard", "0/1", "-artifact", path), &buf); err == nil {
		t.Fatal("canceled shard run reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("canceled shard left files behind: %v", entries)
	}
}

func TestMergeValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"merge"}, &buf); err == nil {
		t.Error("merge without artifacts accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"rhvpp/shard-artifact","version":99,"shard":0,"of":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(t.Context(), []string{"merge", bad}, &buf)
	if err == nil {
		t.Fatal("future-version artifact accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("error should explain the version mismatch: %v", err)
	}
	// An incomplete shard set is rejected before any rendering.
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.json")
	if err := run(t.Context(), shardFlags("-shard", "0/2", "-artifact", s0), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"merge", s0}, &buf); err == nil {
		t.Error("incomplete shard set accepted")
	}
	// A complete set whose options carry a field this build does not read
	// (a retired stepping knob) is refused, not merged at the default.
	whole := filepath.Join(dir, "whole.json")
	if err := run(t.Context(), shardFlags("-shard", "0/1", "-artifact", whole), &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	art, err := rhvpp.DecodeArtifact(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	art.Options = append(bytes.TrimSuffix(art.Options, []byte("}")), `,"SpiceLTETolV":0.002}`...)
	var grown bytes.Buffer
	if err := rhvpp.EncodeArtifact(&grown, art); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(whole, grown.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(t.Context(), []string{"merge", whole}, &buf)
	if err == nil || !strings.Contains(err.Error(), "fields this build does not read") {
		t.Errorf("artifact with an unread options field: merge = %v, want a refusal", err)
	}
}

func TestPresetGoldenSelectsPinnedScope(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "bogus", "-preset", "nope"}, &buf); err == nil {
		t.Error("unknown preset accepted")
	}
	// -preset golden plans the pinned module selection.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	if err := run(t.Context(), []string{"-preset", "golden", "-exp", "cv", "-shard", "0/1", "-artifact", path}, &buf); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close() //detlint:ignore sinkerr read path; DecodeArtifact checks every read error
	art, err := rhvpp.DecodeArtifact(fh)
	if err != nil {
		t.Fatal(err)
	}
	want := len(rhvpp.GoldenOptions().ModuleNames)
	if len(art.Units) != want {
		t.Errorf("golden-preset CV shard has %d units, want %d", len(art.Units), want)
	}
}

// TestProcRunnerEndToEnd drives the subprocess backend against this test
// binary (re-executed via TestMain): output must match the in-process run
// byte for byte.
func TestProcRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fan-out in -short mode")
	}
	t.Setenv("RHVPP_TEST_SHARD_EXEC", "1") // inherited by the children
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o := rhvpp.DefaultOptions()
	o.ModuleNames = []string{"B3", "C0"}
	o.RowsPerChunk = 3
	o.Chunks = 2
	o.VPPStride = 4

	render := func(c *rhvpp.Campaign) string {
		var buf bytes.Buffer
		enc := rhvpp.NewTextEncoder(&buf)
		for _, id := range []string{"cv", "guardband"} {
			if err := c.Run(t.Context(), id, enc); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		return buf.String()
	}
	local, err := rhvpp.NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	want := render(local)

	proc, err := rhvpp.NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	proc.WithRunner(rhvpp.ProcRunner{Command: []string{exe, "-shard-exec"}, Shards: 2})
	if got := render(proc); got != want {
		t.Errorf("ProcRunner output differs from LocalRunner:\n--- proc ---\n%s\n--- local ---\n%s", got, want)
	}
	// The studies ran remotely exactly once each, from this session's view.
	for _, s := range []rhvpp.Study{rhvpp.StudyCV, rhvpp.StudyTRCD} {
		if got := proc.StudyRuns()[s]; got != 1 {
			t.Errorf("study %s executed %d times, want 1", s, got)
		}
	}
}

func TestShardExecProtocol(t *testing.T) {
	o := rhvpp.DefaultOptions()
	o.ModuleNames = []string{"B3"}
	o.RowsPerChunk = 3
	o.Chunks = 2
	units, err := rhvpp.PlanUnits(o, rhvpp.StudyCV)
	if err != nil {
		t.Fatal(err)
	}
	req := filepath.Join(t.TempDir(), "req.json")
	raw, err := json.Marshal(rhvpp.ShardRequest{Shard: 0, Of: 1, Options: o, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(req, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-shard-exec", req}, &buf); err != nil {
		t.Fatal(err)
	}
	art, err := rhvpp.DecodeArtifact(&buf)
	if err != nil {
		t.Fatalf("shard-exec stdout is not an artifact: %v", err)
	}
	if len(art.Units) != 1 || art.Units[0].Key != "B3" {
		t.Errorf("unexpected artifact units: %+v", art.Units)
	}
}
