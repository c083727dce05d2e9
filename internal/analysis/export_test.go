package analysis

// Run applies each analyzer to pkg in isolation: a Session whose program
// is pkg alone, so its facts vanish with the call.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewSession([]*Package{pkg}).Run(pkg, analyzers)
}

// Load is LoadDeps without the packages the patterns did not match.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	metas, err := l.goList(nil, patterns)
	if err != nil {
		return nil, err
	}
	return l.checkMetas(metas, nil)
}
