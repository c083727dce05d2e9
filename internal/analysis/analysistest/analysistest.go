// Package analysistest drives netlint analyzers over fixture packages, in
// the style of golang.org/x/tools/go/analysis/analysistest: fixture files
// under testdata/src/<pkgpath>/ annotate the lines where a diagnostic is
// expected with
//
//	// want "regexp"
//
// (one or more quoted or backquoted regexps per comment). Run loads the
// fixture as a package whose import path is <pkgpath> — which is how
// fixtures under testdata/src/internal/exp exercise the path-restricted
// analyzers — applies the analyzers including //netlint:allow filtering,
// and fails the test on any unexpected diagnostic or unmatched
// expectation.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"netconstant/internal/analysis"
)

// The loader is shared across all tests in the process: packages loaded
// through one Loader share the importer, so the standard library is
// type-checked once, not once per fixture.
var (
	loaderMu sync.Mutex
	loader   = &analysis.Loader{}
)

// Run checks the analyzers against the fixture package at
// testdata/src/<pkgpath>. Pass every analyzer whose diagnostics the
// fixture annotates: suppression fixtures, for example, need the
// suppressed analyzer and a control analyzer in the same run.
//
//netlint:allow testonly the fixture harness: internal/analysis's single-fixture tests call it
func Run(t *testing.T, testdata, pkgpath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	RunDeps(t, testdata, []string{pkgpath}, analyzers...)
}

// RunDeps checks the analyzers against a dependency-ordered chain of
// fixture packages, threading one fact Session through every pass the
// way cmd/netlint does over the real module: facts exported while
// analyzing an earlier fixture are visible to later ones, and a fixture
// may import any fixture that precedes it in pkgpaths (the Loader's
// importer cache resolves the fake import paths). The chain is the
// session's whole program: a whole-program analyzer (testonly) sees the
// uses of every fixture in it. `// want` expectations are checked in
// every fixture of the chain.
func RunDeps(t *testing.T, testdata string, pkgpaths []string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	loaderMu.Lock()
	defer loaderMu.Unlock()

	pkgs := make([]*analysis.Package, len(pkgpaths))
	for i, pkgpath := range pkgpaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
		pkg, err := loader.CheckDir(dir, pkgpath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgpath, err)
		}
		pkgs[i] = pkg
	}
	session := analysis.NewSession(pkgs)
	for _, pkg := range pkgs {
		diags, err := session.Run(pkg, analyzers)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", pkg.PkgPath, err)
		}

		wants := collectWants(t, pkg)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			key := lineKey{pos.Filename, pos.Line}
			if !matchWant(wants[key], d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, d.Analyzer)
			}
		}
		for key, ws := range wants {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re.String())
				}
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// wantRE pulls the quoted or backquoted expectation strings out of a
// `// want ...` comment.
var (
	wantMarker = regexp.MustCompile(`//\s*want\s+(.*)$`)
	wantString = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

func collectWants(t *testing.T, pkg *analysis.Package) map[lineKey][]*want {
	t.Helper()
	wants := map[lineKey][]*want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantMarker.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				for _, sm := range wantString.FindAllStringSubmatch(m[1], -1) {
					pat := sm[1]
					if pat == "" {
						pat = sm[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", fmtPos(pos), pat, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}

func matchWant(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

func fmtPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
