package analysis

import (
	"errors"
	"sort"
	"testing"
)

// topoSortPackages must order dependencies first and break ties by
// import path, deterministically.
func TestTopoSortDeterministic(t *testing.T) {
	metas := []goListPkg{
		{ImportPath: "m/exp", Imports: []string{"m/core", "m/mat"}},
		{ImportPath: "m/core", Imports: []string{"m/mat", "fmt"}},
		{ImportPath: "m/zeta"},
		{ImportPath: "m/mat", Imports: []string{"math"}},
	}
	for i := 0; i < 5; i++ {
		out, err := topoSortPackages(metas)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(out))
		for j, m := range out {
			got[j] = m.ImportPath
		}
		want := []string{"m/mat", "m/zeta", "m/core", "m/exp"}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: order %v, want %v", i, got, want)
			}
		}
	}
}

// A cycle in the metadata must surface as a typed *CycleError matching
// the ErrImportCycle sentinel and naming the members, sorted.
func TestTopoSortCycle(t *testing.T) {
	metas := []goListPkg{
		{ImportPath: "m/b", Imports: []string{"m/a"}},
		{ImportPath: "m/a", Imports: []string{"m/b"}},
		{ImportPath: "m/ok"},
	}
	_, err := topoSortPackages(metas)
	if err == nil {
		t.Fatal("cycle not detected")
	}
	if !errors.Is(err, ErrImportCycle) {
		t.Errorf("errors.Is(err, ErrImportCycle) = false for %v", err)
	}
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T does not unwrap to *CycleError", err)
	}
	if len(ce.Cycle) != 2 || ce.Cycle[0] != "m/a" || ce.Cycle[1] != "m/b" {
		t.Errorf("Cycle = %v, want [m/a m/b]", ce.Cycle)
	}
}

// Self-imports in broken metadata must not deadlock the sort.
func TestTopoSortSelfImportIgnored(t *testing.T) {
	metas := []goListPkg{{ImportPath: "m/self", Imports: []string{"m/self"}}}
	out, err := topoSortPackages(metas)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ImportPath != "m/self" {
		t.Fatalf("out = %v", out)
	}
}

// Every row of the layering table, and every import a row allows, must
// name a package of this module. The analyzer consults only the rows of
// packages it visits, so a row left behind by a deleted package would
// never fail the lint and the table would drift from the module.
func TestLayeringTableNamesLivePackages(t *testing.T) {
	metas, err := (&Loader{}).goList(nil, []string{"netconstant/..."})
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, m := range metas {
		live[layerNormalize(m.ImportPath)] = true
	}
	keys := make([]string, 0, len(layeringAllowed))
	for k := range layeringAllowed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !live[k] {
			t.Errorf("layering row %q names no package in the module", k)
		}
		for _, imp := range layeringAllowed[k] {
			if !live[imp] {
				t.Errorf("layering row %q allows %q, which names no package in the module", k, imp)
			}
		}
	}
}
