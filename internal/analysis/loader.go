package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// DepOnly marks a package LoadDeps pulled in although the patterns
	// did not name it: a dependency of a requested package, or another
	// package of the main module. It is analyzed (its facts and uses
	// feed the requested packages) but callers normally suppress its
	// diagnostics: the user did not ask about it.
	DepOnly bool
}

// A Loader parses and type-checks packages from source. All packages
// loaded through one Loader share a FileSet and an importer, so a
// dependency is type-checked at most once per Loader.
//
// Every package the Loader itself checks — via LoadDeps or
// CheckDir — is registered in an internal cache that the importer
// consults first. Two things follow. First, a module-internal package is
// type-checked exactly once, and the *types.Package a dependent sees for
// an import is the same instance the analyzers saw, so facts keyed by
// types.Object propagate across packages (see Session). Second, CheckDir
// fixtures can import other fixtures loaded earlier through the same
// Loader, which is how the analysistest chain fixtures exercise
// cross-package fact flow without living in the real module.
//
// Remaining dependencies (the standard library, or module packages not
// loaded explicitly) are resolved by go/importer's source compiler,
// which shells out to the go command for module-path resolution; the
// Loader therefore needs a working directory inside the target module.
// No compiled export data and no network are required.
type Loader struct {
	// Dir is the directory `go list` runs in; it must be inside the
	// module whose packages are being loaded. Empty means the process
	// working directory.
	Dir string

	fset     *token.FileSet
	source   types.Importer
	loaded   map[string]*types.Package
	pkgCache map[string]*Package
}

func (l *Loader) init() {
	if l.fset == nil {
		l.fset = token.NewFileSet()
		l.source = importer.ForCompiler(l.fset, "source", nil)
		l.loaded = map[string]*types.Package{}
	}
}

// Import implements types.Importer: cache first, source importer second.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	return l.source.Import(path)
}

// goListPkg is the subset of `go list -json` output the loader consumes.
type goListPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// ErrImportCycle is the sentinel matched by *CycleError.
var ErrImportCycle = fmt.Errorf("import cycle")

// A CycleError reports that the package import graph handed to the
// dependency-ordered loader is not a DAG. The go compiler rejects
// cyclic imports, so seeing one means the metadata itself is broken
// (or hand-built, as in tests); either way analysis order would be
// meaningless and the loader refuses.
type CycleError struct {
	// Cycle lists the import paths of every package on at least one
	// cycle, sorted.
	Cycle []string
}

func (e *CycleError) Error() string {
	return "import cycle among: " + strings.Join(e.Cycle, " -> ")
}

// Is makes errors.Is(err, ErrImportCycle) match.
func (e *CycleError) Is(target error) bool { return target == ErrImportCycle }

// goList runs `go list -json` with the given extra flags and patterns.
func (l *Loader) goList(extra []string, patterns []string) ([]goListPkg, error) {
	args := append([]string{"list", "-json"}, extra...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
	}
	var metas []goListPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var m goListPkg
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// topoSortPackages orders metas dependencies-first: a package appears
// after every package it imports that is itself in metas (imports that
// resolve outside the set — the standard library, unloaded module
// packages — impose no constraint). Ties are broken by import path, so
// the order is deterministic. A cycle within the set returns a typed
// *CycleError naming the packages involved.
func topoSortPackages(metas []goListPkg) ([]goListPkg, error) {
	byPath := make(map[string]int, len(metas))
	for i, m := range metas {
		byPath[m.ImportPath] = i
	}
	indeg := make([]int, len(metas))
	dependents := make([][]int, len(metas))
	for i, m := range metas {
		for _, imp := range m.Imports {
			j, ok := byPath[imp]
			if !ok || j == i {
				continue
			}
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	// Kahn's algorithm with a sorted ready set for determinism.
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	sortByPath := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			return metas[idx[a]].ImportPath < metas[idx[b]].ImportPath
		})
	}
	sortByPath(ready)
	out := make([]goListPkg, 0, len(metas))
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		out = append(out, metas[i])
		var freed []int
		for _, dep := range dependents[i] {
			indeg[dep]--
			if indeg[dep] == 0 {
				freed = append(freed, dep)
			}
		}
		sortByPath(freed)
		ready = append(ready, freed...)
	}
	if len(out) < len(metas) {
		var cyc []string
		for i, d := range indeg {
			if d > 0 {
				cyc = append(cyc, metas[i].ImportPath)
			}
		}
		sort.Strings(cyc)
		return nil, &CycleError{Cycle: cyc}
	}
	return out, nil
}

// LoadDeps expands the go-list patterns (e.g. "./...") and returns the
// matched packages, parsed with comments and fully type-checked, together
// with every other non-standard-library package of the go-list pattern
// "all" — the main module and its dependencies — marked DepOnly, in
// dependency order (a package follows everything it imports). So
// analyzers that consume facts see every definer before its users, and
// testonly sees every use of a requested package, even when the patterns
// name a single package. Standard-library packages are never analyzed.
// Test files are excluded: the invariants netlint enforces are about
// shipped code, and tests legitimately compare floats exactly or measure
// wall-clock time.
func (l *Loader) LoadDeps(patterns ...string) ([]*Package, error) {
	requested, err := l.goList(nil, patterns)
	if err != nil {
		return nil, err
	}
	metas, err := l.goList([]string{"-deps"}, append(patterns, "all"))
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(requested))
	for _, m := range requested {
		want[m.ImportPath] = true
	}
	kept := metas[:0]
	for _, m := range metas {
		if !m.Standard {
			kept = append(kept, m)
		}
	}
	return l.checkMetas(kept, want)
}

// checkMetas topo-sorts metas and type-checks each in order. requested,
// when non-nil, marks every package not in it DepOnly.
func (l *Loader) checkMetas(metas []goListPkg, requested map[string]bool) ([]*Package, error) {
	l.init()
	ordered, err := topoSortPackages(metas)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(ordered))
	for _, m := range ordered {
		if len(m.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(m.GoFiles))
		for i, f := range m.GoFiles {
			files[i] = filepath.Join(m.Dir, f)
		}
		pkg, err := l.check(m.ImportPath, m.Dir, files)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = requested != nil && !requested[m.ImportPath]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// CheckDir type-checks every non-test .go file in dir as a package with
// import path pkgPath. The path matters: path-restricted analyzers
// (determinism, goroutinepurity, cancelflow, layering) key off it, so
// fixtures under testdata/src/internal/exp can exercise the restricted
// behaviour without living in the real package. The checked package is
// registered in the Loader's importer cache under pkgPath, so a fixture
// loaded later through the same Loader may import it.
func (l *Loader) CheckDir(dir, pkgPath string) (*Package, error) {
	l.init()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, n))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	return l.check(pkgPath, dir, files)
}

func (l *Loader) check(pkgPath, dir string, filenames []string) (*Package, error) {
	if p, ok := l.pkgCache[pkgPath]; ok && p.Dir == dir {
		// Already checked through this Loader (e.g. listed by two
		// overlapping patterns, or LoadDeps twice). Re-checking
		// would mint a second *types.Package and split object identity.
		return p, nil
	}
	syntax := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	pkg := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   syntax,
		Types:   tpkg,
		Info:    info,
	}
	l.loaded[pkgPath] = tpkg
	if l.pkgCache == nil {
		l.pkgCache = map[string]*Package{}
	}
	l.pkgCache[pkgPath] = pkg
	return pkg, nil
}
