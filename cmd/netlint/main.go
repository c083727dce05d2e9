// Command netlint machine-checks the repo's load-bearing invariants: the
// determinism of the measurement+analysis pipeline, NaN discipline in the
// numeric kernels, error discipline around the typed E-APIs, the purity
// contract of worker goroutines, context threading, the layering DAG,
// allocation-free hot paths, gob-journal type stability, the
// process-exit vocabulary, and internal packages free of code only tests
// use. It is a multichecker over the suite in internal/analysis:
//
//	go run ./cmd/netlint ./...
//
// Packages are analyzed in dependency order through one fact session —
// cancelflow, hotalloc and journalsafe prove properties about a
// package's functions that checks on downstream packages consume, and
// testonly needs every use in the module — so the requested patterns are
// loaded together with the rest of the module and its dependencies;
// diagnostics are only reported for the packages the patterns named.
//
// Findings print as file:line:col: message (analyzer); a run with
// findings exits 1, which is what makes the CI lint job blocking. With
// -json, findings print instead as a JSON array, position-sorted with a
// stable field order, for the CI artifact. -only restricts the run to a
// single analyzer (facts from the full suite are still computed). A
// finding that is deliberate is silenced in place with
//
//	//netlint:allow <analyzer> <reason>
//
// on the offending line or the line directly above; the reason is
// mandatory, suppressions of unknown analyzers are errors, and an allow
// that suppresses nothing is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"netconstant/internal/analysis"
	"netconstant/internal/cli"
)

// jsonFinding is one finding in -json output. The field order below is
// the marshal order; it is part of the artifact format.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (position-sorted, stable field order)")
	only := flag.String("only", "", "report findings of this analyzer only")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: netlint [-list] [-json] [-only analyzer] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the netlint invariant suite over the given go-list patterns\n(default ./...). Exits 1 if any finding survives //netlint:allow.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return cli.ExitOK
	}
	if *only != "" {
		found := false
		for _, a := range analyzers {
			if a.Name == *only {
				found = true
			}
		}
		if !found && *only != analysis.AllowAnalyzerName {
			return cli.Usagef("netlint", "-only %s: no such analyzer (try -list)", *only)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// LoadDeps: facts must be computed for every dependency before its
	// dependents are analyzed, and testonly must see every use, even
	// when the patterns name a single package.
	loader := &analysis.Loader{}
	pkgs, err := loader.LoadDeps(patterns...)
	if err != nil {
		return cli.Usagef("netlint", "%v", err)
	}

	session := analysis.NewSession(pkgs)
	var out []jsonFinding
	findings := 0
	for _, pkg := range pkgs {
		diags, err := session.Run(pkg, analyzers)
		if err != nil {
			return cli.Usagef("netlint", "%v", err)
		}
		if pkg.DepOnly {
			continue // analyzed for facts only; the user did not ask about it
		}
		for _, d := range diags {
			if *only != "" && d.Analyzer != *only {
				continue
			}
			pos := pkg.Fset.Position(d.Pos)
			if *jsonOut {
				out = append(out, jsonFinding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message,
				})
			} else {
				fmt.Printf("%s: %s (%s)\n", pos, d.Message, d.Analyzer)
			}
			findings++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []jsonFinding{}
		}
		if err := enc.Encode(out); err != nil {
			return cli.Failf("netlint", "encoding findings: %v", err)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "netlint: %d finding(s)\n", findings)
		return cli.ExitFailure
	}
	return cli.ExitOK
}
