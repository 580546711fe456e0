// Package analysis is hmcsimvet: a project-specific static-analysis
// suite that machine-checks the four load-bearing invariants the rest
// of the repository only enforces at runtime.
//
//   - determinism: kernel packages must not read wall clocks, use the
//     process-global math/rand generator, spawn goroutines, select, or
//     let map iteration order leak into event schedules or ordered
//     output. The runtime
//     counterpart is the byte-identity A/B guard (PR 8); this analyzer
//     catches the drift before it costs a golden-regeneration hunt.
//   - nilhook: every exported method on a pointer-receiver tracer type
//     must begin with a nil-receiver guard, so a new observability hook
//     can never panic a tracerless build. Runtime counterpart:
//     TestNilTracersAreNoOps.
//   - speckey: fields added to the Spec content-key closure must be
//     json:"-" or omitempty, so specs predating the field keep their
//     cache keys. Runtime counterpart: the key-stability tests.
//   - hotpath: functions annotated //hmcsim:hotpath must not build
//     capturing closures, call fmt, concatenate strings, or box values
//     into interfaces. Runtime counterpart: the 0 allocs/op bench-smoke
//     CI steps.
//
// The suite is framework-compatible with go/analysis in spirit, but is
// implemented on the standard library alone (go/ast, go/types,
// go/importer): this module deliberately has no dependencies, and the
// golang.org/x/tools module is not available in the build image. The
// cmd/hmcsimvet binary speaks the `go vet -vettool=` protocol (see
// unit.go) and also loads packages itself when given patterns (see
// load.go).
//
// Escape hatches are comment directives that always carry a reason:
//
//	//hmcsim:nondet-ok <why order/time cannot affect results>
//	//hmcsim:speckey-ok <why the field is part of the founding key>
//
// A directive suppresses diagnostics on its own line and the line
// below, so it works both as a trailing comment and as the last line of
// a doc comment. A directive with no reason suppresses nothing: the
// diagnostic is reported with a note asking for the reason, so silent
// waivers cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate
// onto the real framework if the dependency ever becomes available.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "determinism"
	Doc  string // one-paragraph description shown by `hmcsimvet help`
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	dirs map[string]map[int][]directive // filename → line → directives
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// pkgPath returns the package's import path with the " [pkg.test]"
// suffix the vet driver appends to test variants stripped off.
func (p *Pass) pkgPath() string {
	pkgPath := p.Pkg.Path()
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	return pkgPath
}

// Segment returns the last element of the package path, which is how
// analyzers decide whether a package is in their scope.
func (p *Pass) Segment() string {
	return path.Base(p.pkgPath())
}

// InKernelScope reports whether the package is part of the simulator
// proper: the module root package or anything under internal/. The
// examples and cmd trees reuse kernel segment names (examples/traffic,
// cmd/hmcsim) but are demo/wiring code outside the invariants' scope.
func (p *Pass) InKernelScope() bool {
	pkgPath := p.pkgPath()
	return pkgPath == "hmcsim" || strings.Contains(pkgPath, "/internal/")
}

// IsTestFile reports whether file is a _test.go file. The invariants
// this suite enforces are about production kernel code; tests
// legitimately use goroutines, wall clocks and unordered maps.
func (p *Pass) IsTestFile(file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go")
}

// directive is one //hmcsim:<name> <reason> comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
}

// directivePrefix introduces every escape-hatch and annotation comment.
const directivePrefix = "//hmcsim:"

// parseDirective splits a raw comment into a directive, if it is one.
func parseDirective(c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	name, reason, _ := strings.Cut(rest, " ")
	if name == "" {
		return directive{}, false
	}
	return directive{name: name, reason: strings.TrimSpace(reason), pos: c.Pos()}, true
}

// buildDirectives indexes every //hmcsim: comment by file and line.
func (p *Pass) buildDirectives() {
	p.dirs = make(map[string]map[int][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.dirs[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]directive)
					p.dirs[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
}

// directiveAt returns the named directive covering pos: one on the same
// line (trailing comment) or on the line directly above (doc-comment
// style).
func (p *Pass) directiveAt(name string, pos token.Pos) (directive, bool) {
	if p.dirs == nil {
		p.buildDirectives()
	}
	at := p.Fset.Position(pos)
	byLine := p.dirs[at.Filename]
	for _, line := range [2]int{at.Line, at.Line - 1} {
		for _, d := range byLine[line] {
			if d.name == name {
				return d, true
			}
		}
	}
	return directive{}, false
}

// suppress decides the fate of a diagnostic that the named directive
// may waive. With a reasoned directive present the diagnostic is
// dropped; with a reasonless directive it is reported with a note
// demanding the reason; with no directive it is reported as given.
func (p *Pass) suppress(name string, d Diagnostic) {
	dir, ok := p.directiveAt(name, d.Pos)
	if ok && dir.reason != "" {
		return
	}
	if ok {
		d.Message += fmt.Sprintf(" (the %s%s directive needs a reason to suppress this)", directivePrefix, name)
	}
	p.Report(d)
}

// hasHotpathDirective reports whether a function declaration's doc
// comment carries the //hmcsim:hotpath annotation.
func hasHotpathDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if d, ok := parseDirective(c); ok && d.name == "hotpath" {
			return true
		}
	}
	return false
}

// All returns the full hmcsimvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, NilHook, SpecKey, HotPath}
}

// RunPackage runs every analyzer over one type-checked package and
// returns the findings sorted by position.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
