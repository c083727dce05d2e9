package analysis_test

import (
	"testing"

	"netconstant/internal/analysis"
)

func TestLoaderLoad(t *testing.T) {
	l := &analysis.Loader{}
	pkgs, err := l.Load("netconstant/internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, expected 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.PkgPath != "netconstant/internal/stats" {
		t.Errorf("PkgPath = %q", pkg.PkgPath)
	}
	if len(pkg.Files) == 0 || pkg.Types == nil || pkg.Info == nil {
		t.Errorf("package not fully loaded: files=%d types=%v", len(pkg.Files), pkg.Types)
	}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if len(name) == 0 {
			t.Error("file with no position info")
		}
	}
}

// LoadDeps on a single package must pull in its module-internal
// dependencies, dependencies first, marked DepOnly — the order and
// marking cmd/netlint and the repo sweep below rely on.
func TestLoadDepsOrder(t *testing.T) {
	l := &analysis.Loader{}
	pkgs, err := l.LoadDeps("netconstant/internal/rpca")
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	depOnly := map[string]bool{}
	for i, p := range pkgs {
		pos[p.PkgPath] = i
		depOnly[p.PkgPath] = p.DepOnly
	}
	rpca, ok := pos["netconstant/internal/rpca"]
	if !ok {
		t.Fatalf("requested package missing from LoadDeps result: %v", pos)
	}
	for _, dep := range []string{"netconstant/internal/mat", "netconstant/internal/cancel"} {
		i, ok := pos[dep]
		if !ok {
			t.Errorf("dependency %s not loaded", dep)
			continue
		}
		if i >= rpca {
			t.Errorf("%s at index %d does not precede rpca at %d", dep, i, rpca)
		}
		if !depOnly[dep] {
			t.Errorf("%s not marked DepOnly", dep)
		}
	}
	if depOnly["netconstant/internal/rpca"] {
		t.Error("requested package wrongly marked DepOnly")
	}
}

// The whole repo must be clean under the full suite — the in-tree twin of
// the CI lint gate, run exactly the way cmd/netlint runs it: packages in
// dependency order through one fact Session, so cross-package facts
// (hotpath annotations, gob sinks, cancellation pollers) are visible
// where they are consumed. Skipped under -short: it type-checks every
// package from source.
func TestRepoCleanUnderNetlint(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint sweep skipped in -short mode")
	}
	l := &analysis.Loader{}
	pkgs, err := l.LoadDeps("netconstant/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	session := analysis.NewSession(pkgs)
	for _, pkg := range pkgs {
		diags, err := session.Run(pkg, analysis.All())
		if err != nil {
			t.Fatal(err)
		}
		if pkg.DepOnly {
			continue
		}
		for _, d := range diags {
			t.Errorf("%s: %s (%s)", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
}
