package analysis

import (
	"sort"
	"strconv"
	"strings"
)

// Layering freezes the module's import DAG. The architecture the repo
// grew PR by PR — pure utility leaves at the bottom, the
// topo→simnet→cloud→core→exp→plan spine in the middle, commands on top
// reaching down only through their declared entry points — exists today
// only as convention; one convenient import from internal/mat up into
// internal/exp would invert the layering silently and compile fine.
// This analyzer makes every module-internal import edge a declared one:
// layeringAllowed below is the single allowed-edge table, and an import
// not in it is reported by naming the forbidden edge, so the diff that
// would bend the architecture has to edit the table in the same commit
// and say so in review.
//
// A package that is in scope (its normalized path starts with internal/
// or cmd/) but missing from the table is itself a finding: new packages
// must take a position in the DAG when they are born, not after the
// edges have calcified.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "module-internal imports must match the declared package DAG; violations name the forbidden edge",
	Run:  runLayering,
}

// layeringAllowed is THE layering table: for every in-scope package
// (path normalized to its internal/… or cmd/… suffix), the complete
// list of module-internal packages it may import. Layers, bottom to
// top (see DESIGN.md §12 for the same table drawn as a matrix):
//
//	L0 utility leaves:  mat stats cancel cli checkpoint des topo
//	                    sparse cost analysis
//	L1 modeling:        netmodel netcoord rpca simnet workflow mapping
//	L2 infrastructure:  mpi cloud faults
//	L3 decision:        core apps
//	L4 experiments:     exp
//	L5 orchestration:   plan chaos serve
//	cmd/*:              each command's declared entry points only
var layeringAllowed = map[string][]string{
	// L0 — leaves: import nothing module-internal.
	"internal/mat":        {},
	"internal/stats":      {},
	"internal/cancel":     {},
	"internal/cli":        {},
	"internal/checkpoint": {},
	"internal/des":        {},
	"internal/topo":       {},
	"internal/sparse":     {},
	"internal/cost":       {},
	"internal/analysis":   {},

	"internal/analysis/analysistest": {"internal/analysis"},

	// L1 — modeling over the leaves.
	"internal/netmodel": {"internal/mat"},
	"internal/netcoord": {"internal/mat"},
	"internal/rpca":     {"internal/cancel", "internal/mat"},
	"internal/simnet":   {"internal/des", "internal/stats", "internal/topo"},
	"internal/workflow": {"internal/netmodel", "internal/stats"},
	"internal/mapping":  {"internal/mat", "internal/netmodel", "internal/stats"},

	// L2 — simulation/measurement infrastructure.
	"internal/mpi":    {"internal/des", "internal/mat", "internal/netmodel", "internal/simnet", "internal/topo"},
	"internal/cloud":  {"internal/cancel", "internal/mat", "internal/netmodel", "internal/simnet", "internal/stats", "internal/topo"},
	"internal/faults": {"internal/cloud", "internal/netmodel", "internal/stats", "internal/topo"},

	// L3 — decision layer.
	"internal/core": {"internal/cancel", "internal/cloud", "internal/mat", "internal/mpi", "internal/netmodel", "internal/rpca", "internal/topo"},
	"internal/apps": {"internal/mpi", "internal/sparse", "internal/stats"},

	// L4 — the experiment pipeline.
	"internal/exp": {
		"internal/apps", "internal/cancel", "internal/checkpoint", "internal/cloud",
		"internal/core", "internal/cost", "internal/faults", "internal/mapping",
		"internal/mat", "internal/mpi", "internal/netcoord", "internal/netmodel",
		"internal/rpca", "internal/stats", "internal/topo", "internal/workflow",
	},

	// L5 — orchestration over everything below.
	"internal/plan": {"internal/cli", "internal/exp"},
	"internal/chaos": {
		"internal/cancel", "internal/checkpoint", "internal/cloud", "internal/core",
		"internal/exp", "internal/faults", "internal/plan", "internal/rpca",
		"internal/simnet", "internal/stats", "internal/topo",
	},
	"internal/serve": {
		"internal/cancel", "internal/checkpoint", "internal/cloud", "internal/core",
		"internal/mpi", "internal/stats", "internal/topo",
	},

	// cmd/* — each command's declared entry points.
	"cmd/chaossoak":    {"internal/chaos", "internal/checkpoint", "internal/cli"},
	"cmd/expdriver":    {"internal/cancel", "internal/checkpoint", "internal/cli", "internal/cloud", "internal/exp"},
	"cmd/expfleet":     {"internal/checkpoint", "internal/cli", "internal/plan"},
	"cmd/netconstant":  {"internal/cli", "internal/cloud", "internal/core", "internal/faults", "internal/mpi", "internal/netcoord", "internal/stats", "internal/topo"},
	"cmd/netconstantd": {"internal/cli", "internal/serve"},
	"cmd/netlint":      {"internal/analysis", "internal/cli"},
}

// layerNormalize reduces an import path to its table key: the suffix
// starting at the first "internal" or "cmd" path segment ("netconstant/
// internal/mat" and a fixture's "layering/internal/mat" both become
// "internal/mat"). Paths with neither segment — the standard library,
// examples/ demo binaries, the root's benchmark-only package — normalize
// to "" and are out of scope.
func layerNormalize(path string) string {
	parts := strings.Split(path, "/")
	for i, p := range parts {
		if p == "internal" || p == "cmd" {
			return strings.Join(parts[i:], "/")
		}
	}
	return ""
}

func runLayering(pass *Pass) error {
	self := layerNormalize(pass.Pkg.Path())
	if self == "" {
		return nil
	}
	allowed, known := layeringAllowed[self]
	if !known {
		if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Name.Pos(),
				"package %s is missing from the layering table: declare its allowed imports in internal/analysis/layering.go", self)
		}
		return nil
	}
	allowSet := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		allowSet[a] = true
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			target := layerNormalize(path)
			if target == "" || target == self {
				continue
			}
			if !allowSet[target] {
				pass.Reportf(imp.Pos(),
					"forbidden import edge %s -> %s: not in the layering table (allowed from %s: %s)",
					self, target, self, strings.Join(sortedCopy(allowed), " "))
			}
		}
	}
	return nil
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	if len(out) == 0 {
		out = []string{"(nothing)"}
	}
	return out
}
