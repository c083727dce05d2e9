package analysis

// All returns the netlint suite in reporting order. Run the suite over
// packages in dependency order through one Session: cancelflow, hotalloc
// and journalsafe export facts about a package's functions that their
// downstream checks consume, and testonly reads the session's whole
// package list.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, Floatsafe, Checkederr, Goroutinepurity,
		Cancelflow, Layering, Hotalloc, Journalsafe, Exitcode, Testonly,
	}
}
