// Package detlint is the shared plumbing for the rhvpp determinism and
// shard-safety analyzers (see docs/DETERMINISM.md for the invariants each
// analyzer guards).
//
// It provides the //detlint:ignore suppression directive, honored by every
// analyzer in the suite, and a small driver core (RunAnalyzers) shared by
// cmd/detlint and the analysistest harness so both execute analyzers the
// same way.
//
// # Suppression
//
// A diagnostic can be suppressed with a directive comment naming the
// analyzer and giving a reason:
//
//	elapsed := time.Since(start) //detlint:ignore detsource wall-clock benchmark timing
//
// The directive covers the line it appears on and the following line (so it
// can sit on its own line above the flagged statement). A directive without
// a reason does not suppress anything; instead the named analyzer reports
// the directive itself, so every suppression in the tree carries a
// justification.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"runtime"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// IgnorePrefix starts a suppression directive comment. The full form is
//
//	//detlint:ignore <analyzer> <reason...>
const IgnorePrefix = "//detlint:ignore"

// parseDirective decodes a suppression directive from a single comment.
// ok is false when the comment is not a directive at all or names no
// analyzer.
func parseDirective(c *ast.Comment) (analyzer, reason string, ok bool) {
	rest, found := strings.CutPrefix(c.Text, IgnorePrefix)
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", "", false
	}
	// An embedded "//" ends the directive; it introduces an ordinary
	// comment (fixtures use this for // want expectations).
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", false
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// Reporter wraps pass.Report with //detlint:ignore suppression for the
// pass's analyzer. Constructing it also reports any unreasoned directive
// naming this analyzer, so every analyzer gets that check for free.
type Reporter struct {
	pass *analysis.Pass
	// suppressed maps filename -> set of lines covered by a reasoned
	// directive naming this analyzer.
	suppressed map[string]map[int]bool
}

// NewReporter scans the pass's files for directives naming
// pass.Analyzer.Name and returns a Reporter enforcing them.
func NewReporter(pass *analysis.Pass) *Reporter {
	r := &Reporter{pass: pass, suppressed: make(map[string]map[int]bool)}
	name := pass.Analyzer.Name
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				an, reason, ok := parseDirective(c)
				if !ok || an != name {
					continue
				}
				if reason == "" {
					pass.Report(analysis.Diagnostic{
						Pos: c.Pos(),
						Message: fmt.Sprintf(
							"detlint:ignore %s directive has no reason; write //detlint:ignore %s <why> (an unreasoned ignore suppresses nothing)",
							name, name),
					})
					continue
				}
				p := pass.Fset.Position(c.Pos())
				lines := r.suppressed[p.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					r.suppressed[p.Filename] = lines
				}
				// The directive covers its own line (trailing-comment
				// form) and the next line (own-line form).
				lines[p.Line] = true
				lines[p.Line+1] = true
			}
		}
	}
	return r
}

// Reportf reports a diagnostic at pos unless a reasoned directive covers
// that line.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.pass.Fset.Position(pos)
	if r.suppressed[p.Filename][p.Line] {
		return
	}
	r.pass.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Package bundles one type-checked package for RunAnalyzers.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Finding is one diagnostic tagged with the analyzer that produced it.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated. Both drivers must use it so analyzers see identical type
// information.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// RunAnalyzers executes the analyzers (and, transitively, their Requires)
// over one package and returns the diagnostics of the requested analyzers
// sorted by position. It is the single execution path shared by
// cmd/detlint and analysistest, so fixtures exercise exactly the driver
// semantics. Facts live in a store private to this call; drivers that
// analyze multiple packages and need cross-package facts (hotalloc's
// allocation summaries) use RunAnalyzersFacts with a shared store.
func RunAnalyzers(pkg *Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return RunAnalyzersFacts(pkg, analyzers, NewFactStore())
}

// RunAnalyzersFacts is RunAnalyzers with a caller-owned fact store. The
// driver must analyze packages in dependency order (imports first) for
// imported facts to be present, mirroring the upstream framework's
// scheduling contract.
func RunAnalyzersFacts(pkg *Package, analyzers []*analysis.Analyzer, store *FactStore) ([]Finding, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	var findings []Finding
	results := make(map[*analysis.Analyzer]any)
	running := make(map[*analysis.Analyzer]bool)

	var run func(a *analysis.Analyzer) (any, error)
	run = func(a *analysis.Analyzer) (any, error) {
		if res, ok := results[a]; ok {
			return res, nil
		}
		if running[a] {
			return nil, fmt.Errorf("detlint: requirement cycle through %s", a.Name)
		}
		running[a] = true
		defer func() { running[a] = false }()
		resultOf := make(map[*analysis.Analyzer]any, len(a.Requires))
		for _, req := range a.Requires {
			res, err := run(req)
			if err != nil {
				return nil, err
			}
			resultOf[req] = res
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			ResultOf:   resultOf,
			ReadFile:   os.ReadFile,
		}
		store.bind(pass)
		pass.Report = func(d analysis.Diagnostic) {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		res, err := a.Run(pass)
		if err != nil {
			return nil, fmt.Errorf("detlint: %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
		results[a] = res
		return res, nil
	}

	for _, a := range analyzers {
		if _, err := run(a); err != nil {
			return nil, err
		}
	}
	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings by position, then analyzer, then message —
// a total order, so report order never depends on scheduling.
func SortFindings(findings []Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// IsMapType reports whether t (after unaliasing) is a map.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}

// UsesObject reports whether any identifier under n resolves to one of the
// given objects.
func UsesObject(info *types.Info, n ast.Node, objs ...types.Object) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for _, o := range objs {
			if o != nil && obj == o {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// Suppressed reports whether a reasoned directive naming this analyzer
// covers pos's line. hotalloc consults it while building its exported
// allocation summaries, so a suppressed site vanishes from downstream
// callers' diagnostics too, not only from the local report.
func (r *Reporter) Suppressed(pos token.Pos) bool {
	p := r.pass.Fset.Position(pos)
	return r.suppressed[p.Filename][p.Line]
}
