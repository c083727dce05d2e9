package analysis_test

import (
	"testing"

	"netconstant/internal/analysis"
	"netconstant/internal/analysis/analysistest"
)

// def defines objects that the tool command uses, uses only through an
// interface, or does not use at all (one referenced only from a
// _test.go); an allow with a reason suppresses, and an allow whose object
// gained a user is reported as decorative.
func TestTestonly(t *testing.T) {
	analysistest.RunDeps(t, "testdata", []string{
		"testonly/internal/def",
		"testonly/cmd/tool",
	}, analysis.Testonly)
}
