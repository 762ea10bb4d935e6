// Command detlint runs the rhvpp determinism, shard-safety, and
// performance-contract analyzer suite (internal/analysis/...) over Go
// package patterns:
//
//	go run ./cmd/detlint ./...          # human-readable, exit 1 on findings
//	go run ./cmd/detlint -json ./...    # machine-readable diagnostics
//	go run ./cmd/detlint -sarif ./...   # SARIF 2.1.0 log for code-scanning UIs
//
// The driver is self-contained so it works offline: package metadata and
// compiler export data come from `go list -deps -export -json`, source is
// parsed and type-checked in-process, packages are analyzed in dependency
// order so cross-package analyzer facts (hotalloc's allocation summaries)
// are available at every call site, and the analyzers run through the same
// execution core as their analysistest fixtures. Suppressions use
// //detlint:ignore <analyzer> <reason> (see internal/analysis/detlint).
//
// The same binary also speaks the `go vet -vettool` protocol, so editors
// and CI can share one tool:
//
//	go build -o /tmp/detlint ./cmd/detlint
//	go vet -vettool=/tmp/detlint ./...
//
// In vettool mode the standard unitchecker drives the suite (go vet hands
// it one package per invocation plus serialized facts from dependencies);
// the diagnostics and suppression semantics are identical to the
// standalone driver because both run the same analyzers.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
	"github.com/dramstudy/rhvpp/internal/analysis/suite"
)

func main() {
	// go vet -vettool invokes the tool as `detlint -V=full` (version probe),
	// `detlint -flags` (flag discovery), and `detlint <flags> <pkg>.cfg`
	// (one unit of work); hand all three shapes to the standard unitchecker
	// before defining any standalone flags. Main never returns.
	if args := os.Args[1:]; len(args) > 0 &&
		(strings.HasPrefix(args[0], "-V") || args[0] == "-flags" ||
			strings.HasSuffix(args[len(args)-1], ".cfg")) {
		unitchecker.Main(suite.All()...)
	}

	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log on stdout")
	for _, a := range suite.All() {
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	flag.Parse()
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "detlint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	switch {
	case *jsonOut:
		err = writeJSON(os.Stdout, findings)
	case *sarifOut:
		err = writeSARIF(os.Stdout, findings, suite.All())
	default:
		for _, f := range findings {
			fmt.Printf("%s: [%s] %s\n", relPos(f.Pos), f.Analyzer, f.Message)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// listedPkg is the subset of `go list -json` output the driver consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Deps       []string
}

// lint loads the packages matching patterns (relative to dir) and runs the
// full analyzer suite over every non-dependency, non-test package, in
// dependency order under one shared fact store so facts exported while
// analyzing a package are visible at its importers' call sites. Findings
// come back sorted by position.
func lint(dir string, patterns []string) ([]detlint.Finding, error) {
	pkgs, err := load(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	var targets []listedPkg
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	// Analysis order is topological: Deps is the TRANSITIVE dependency
	// cone, so "fewer in-target deps first" (ties broken by the unique
	// ImportPath) puts every target after all targets it imports. The
	// report stays in position order because findings are re-sorted
	// globally below.
	inTarget := make(map[string]bool, len(targets))
	for _, t := range targets {
		inTarget[t.ImportPath] = true
	}
	depCount := func(p listedPkg) int {
		n := 0
		for _, d := range p.Deps {
			if inTarget[d] {
				n++
			}
		}
		return n
	}
	sort.SliceStable(targets, func(i, j int) bool {
		ni, nj := depCount(targets[i]), depCount(targets[j])
		if ni != nj {
			return ni < nj
		}
		return targets[i].ImportPath < targets[j].ImportPath
	})

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the `go list -deps -export` cone)", path)
		}
		return os.Open(file)
	})

	var findings []detlint.Finding
	analyzers := suite.All()
	store := detlint.NewFactStore()
	for _, target := range targets {
		if len(target.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s uses cgo, which this driver cannot type-check", target.ImportPath)
		}
		pkgFindings, err := lintPackage(fset, imp, target, analyzers, store)
		if err != nil {
			return nil, err
		}
		findings = append(findings, pkgFindings...)
	}
	detlint.SortFindings(findings)
	return findings, nil
}

// lintPackage parses, type-checks and analyzes one package.
func lintPackage(fset *token.FileSet, imp types.Importer, target listedPkg, analyzers []*analysis.Analyzer, store *detlint.FactStore) ([]detlint.Finding, error) {
	files := make([]*ast.File, 0, len(target.GoFiles))
	for _, name := range target.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(target.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := detlint.NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(target.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", target.ImportPath, err)
	}
	return detlint.RunAnalyzersFacts(&detlint.Package{Fset: fset, Files: files, Types: tpkg, Info: info}, analyzers, store)
}

// load shells out to `go list` for package metadata plus export data for
// the full dependency cone (stdlib included), so type-checking never
// needs the network.
func load(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,Deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// jsonFinding is the machine-readable diagnostic record for -json.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// writeJSON emits findings as an indented JSON array (always an array,
// [] when clean) so downstream tooling can consume diagnostics without
// scraping text.
func writeJSON(w io.Writer, findings []detlint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     relPath(f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// SARIF 2.1.0 envelope, the subset code-scanning UIs consume: one run,
// one rule per analyzer, one result per finding. Struct-typed so the
// envelope shape is pinned by the compiler and the hermetic test.
type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
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
	InformationURI string      `json:"informationUri,omitempty"`
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
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF emits findings as a SARIF 2.1.0 log. Results is always an
// array ([] when clean), and every analyzer appears as a rule whether or
// not it fired, so consumers see the full suite.
func writeSARIF(w io.Writer, findings []detlint.Finding, analyzers []*analysis.Analyzer) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "warning",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relPath(f.Pos.Filename))},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "detlint", InformationURI: "https://github.com/dramstudy/rhvpp", Rules: rules}},
			Results: results,
		}},
	})
}

// relPos renders a position with a cwd-relative file path.
func relPos(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", relPath(p.Filename), p.Line, p.Column)
}

func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
