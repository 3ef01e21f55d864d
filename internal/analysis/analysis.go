// Package analysis is the engine behind cmd/cdlvet: a stdlib-only static
// analysis suite that enforces, at build time, the repo-specific invariants
// the dynamic tests (goldens, differential harnesses, -race storms) can only
// sample — deterministic output bytes, lock discipline, context
// propagation, observability hygiene, op-count exhaustiveness and
// goroutine lifecycle.
//
// The engine deliberately reimplements a thin slice of
// golang.org/x/tools/go/analysis on top of go/parser and go/types with the
// source importer, so the module's go.mod stays dependency-free. Each
// Analyzer receives fully type-checked packages and reports Findings;
// findings can be waived inline with a
//
//	//cdlvet:allow <analyzer> -- <reason>
//
// directive on the offending line (or the line above), or grandfathered in
// a checked-in baseline file (see baseline.go). The target state is an
// empty baseline: fix what the suite finds.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	// File is the path relative to the module root.
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// Pos renders the finding's location as file:line:col.
func (f Finding) Pos() string {
	return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
}

// String renders the finding in the driver's text output format.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos(), f.Analyzer, f.Message)
}

// Analyzer is one pass of the suite. Exactly one of Run or RunModule is
// set: Run inspects one package at a time, RunModule runs once over the
// whole module (for cross-package rules like interface exhaustiveness).
type Analyzer struct {
	Name string
	Doc  string

	Run       func(*Pass)
	RunModule func(*Pass)
}

// Pass carries one analyzer invocation's inputs and its report sink. For
// per-package analyzers Pkg is the package under inspection; for module
// analyzers Pkg is nil and All holds every package in load order.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package
	All      []*Package

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	rel, err := filepath.Rel(p.Mod.Dir, position.Filename)
	if err != nil {
		rel = position.Filename
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     filepath.ToSlash(rel),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerLockCheck,
		AnalyzerCtxFlow,
		AnalyzerObsHygiene,
		AnalyzerExhaustive,
		AnalyzerGoCtx,
	}
}

// ByName resolves a comma-separable analyzer name; nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the module's selected packages and
// returns the surviving findings (inline //cdlvet:allow waivers already
// applied) sorted by file, line and analyzer.
func Run(mod *Module, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Mod: mod, All: mod.Packages, findings: &findings}
		if a.RunModule != nil {
			a.RunModule(pass)
			continue
		}
		for _, pkg := range mod.Packages {
			if !pkg.Selected {
				continue
			}
			p := *pass
			p.Pkg = pkg
			a.Run(&p)
		}
	}
	kept := findings[:0]
	for _, f := range findings {
		if !mod.allowed(f) {
			kept = append(kept, f)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}
