package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a typed claim an analyzer proves about a types.Object while
// analyzing the object's defining package, stored so that passes over
// downstream packages (packages that import the definer) can consume it.
// This is the stdlib-only analogue of golang.org/x/tools/go/analysis
// facts: because the Loader type-checks every module-internal package
// exactly once and shares the resulting *types.Package instances through
// its importer cache, object identity is stable across passes and facts
// can be keyed directly by types.Object.
//
// Concrete fact types must be pointers to structs and implement AFact.
// By convention facts are only useful on exported objects — an
// unexported object cannot be referenced downstream, so nothing can look
// its facts up — but exporting on unexported objects is permitted (the
// defining package's own later analyzers may consume them).
type Fact interface {
	// AFact is a marker; it has no behaviour.
	AFact()
}

// factKey identifies one (object, fact type) cell in the store.
type factKey struct {
	obj types.Object
	typ reflect.Type
}

// factStore holds every fact exported during one Session, across all
// packages and analyzers. It is not safe for concurrent use; a Session
// runs packages in dependency order, one at a time.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: map[factKey]Fact{}}
}

func (s *factStore) export(obj types.Object, f Fact) error {
	t := reflect.TypeOf(f)
	if t == nil || t.Kind() != reflect.Ptr {
		return fmt.Errorf("fact %T is not a pointer to a struct", f)
	}
	s.m[factKey{obj, t}] = f
	return nil
}

func (s *factStore) imports(obj types.Object, f Fact) bool {
	t := reflect.TypeOf(f)
	got, ok := s.m[factKey{obj, t}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// ExportObjectFact records fact about obj for consumption by later
// passes in the same Session (including passes over downstream
// packages). fact must be a pointer to a struct.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil {
		return
	}
	if err := p.facts.export(obj, fact); err != nil {
		panic(fmt.Sprintf("analysis: ExportObjectFact(%v): %v", obj, err))
	}
}

// ImportObjectFact copies into fact the fact of fact's concrete type
// previously exported about obj, reporting whether one was found. fact
// must be a pointer to a struct of the same type the exporter used.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil {
		return false
	}
	return p.facts.imports(obj, fact)
}

// A Session runs analyzers over the packages of one program in
// dependency order, threading one fact store through every pass so that
// facts exported while analyzing a dependency are visible to passes over
// its dependents. Run packages dependencies-first (LoadDeps returns them
// in that order); a fact exported after its consumer has already run is
// silently useless. The session also holds the whole package list, so a
// whole-program analyzer (testonly) sees every package's uses before
// the first Run.
type Session struct {
	facts *factStore
	prog  *program
}

// program is the package list of one Session. Whole-program analyzers
// read it through their Pass; each index over it is built at most once.
type program struct {
	pkgs []*Package
	refs *refIndex
}

// NewSession creates a session over pkgs, every package the run loaded.
func NewSession(pkgs []*Package) *Session {
	return &Session{facts: newFactStore(), prog: &program{pkgs: pkgs}}
}

// Run applies each analyzer to pkg, which should be one of the
// session's packages. Findings suppressed by an allow comment are
// dropped, and an allow comment that names an analyzer in this run yet
// suppresses nothing is itself reported (a decorative suppression hides
// nothing today and will silently hide a regression tomorrow).
func (s *Session) Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     s.facts,
			prog:      s.prog,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
		diags = append(diags, pass.diagnostics...)
	}
	// An allow may name any analyzer in the suite, not just the ones in
	// this run — running a single analyzer (as the fixture tests do) must
	// not reclassify other analyzers' suppressions as unknown names.
	known := make(map[string]bool, len(analyzers))
	ran := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}
	allows, bad := collectAllows(pkg.Fset, pkg.Files, known)
	diags, used := filterAllowed(pkg.Fset, diags, allows)
	for key, pos := range allows {
		if used[key] || !ran[key.analyzer] {
			continue
		}
		bad = append(bad, Diagnostic{
			Pos:      pos,
			Message:  "netlint:allow " + key.analyzer + " suppresses nothing: the finding it silenced is gone — delete the comment",
			Analyzer: AllowAnalyzerName,
		})
	}
	diags = append(diags, bad...)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
