// Package analysis is netlint's static-analysis framework: a minimal,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface (Analyzer / Pass / Diagnostic) on top of the standard library's
// go/ast and go/types.
//
// Why not x/tools itself? The repo is deliberately zero-dependency (see
// go.mod), and the subset netlint needs — run a checker over type-checked
// packages, report position-tagged diagnostics, drive fixtures with
// `// want` comments — is small enough to own. The shapes below mirror
// x/tools deliberately so the analyzers could be ported to a real
// multichecker by swapping import paths.
//
// The suite encodes this repo's load-bearing invariants (reproducible
// decompositions need byte-identical tables for a fixed seed):
//
//   - determinism:     no wall clock / global rand / order-dependent map
//     iteration in the measurement+analysis packages
//   - floatsafe:       no NaN-oblivious float comparisons or Max/Min
//   - checkederr:      no blank-discarded errors from the typed APIs
//   - goroutinepurity: goroutine bodies only write index-addressed slots
//
// See DESIGN.md §9 for the invariant each analyzer machine-checks and the
// prior PR whose bug motivates it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one netlint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //netlint:allow comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass hands one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts       *factStore
	prog        *program
	diagnostics []Diagnostic
}

// A Diagnostic is one finding, tagged with the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}
