package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Testonly keeps the module's internal packages down to what a binary
// runs. Go refuses an import of an internal/ package from outside the
// module, and the Loader reads no _test.go file, so a package-level
// object of an internal package that no loaded file references outside
// its own declaration can run only under `go test`: an oracle or a
// convenience that only tests use, or code that nothing uses at all. It
// belongs in a _test.go file, or nowhere.
//
// The reference index is built once per Session over every package the
// run loaded, which is why LoadDeps loads the whole main module. A
// method is exempt when its receiver type, or a pointer to it,
// implements an interface type that a loaded package, or a package one
// of them imports, declares with the method's name (a call through the
// interface never names the concrete method); a method that merely
// shares a name with such an interface is not. Error, Is, As and Unwrap
// are exempt by name: fmt and errors assert them through the universe's
// error and anonymous interfaces. A method's receiver does not count as
// a use of its type.
// An object that another module (perfbench), the fixture harness or
// another package's tests need carries `//netlint:allow testonly
// <reason>` naming that user.
var Testonly = &Analyzer{
	Name: "testonly",
	Doc:  "package-level objects of internal packages must be referenced by some non-test file of the module",
	Run:  runTestonly,
}

// refIndex is the whole-program half of testonly: every object some
// loaded file references outside the object's own declaration, and the
// interfaces that declare each method name.
type refIndex struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

// errorProtocol names the methods exempt by name alone.
var errorProtocol = map[string]bool{"Error": true, "Is": true, "As": true, "Unwrap": true}

// references returns the program's reference index, building it on
// first use.
func (p *program) references() *refIndex {
	if p.refs != nil {
		return p.refs
	}
	idx := &refIndex{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	scanned := map[*types.Package]bool{}
	for _, pkg := range p.pkgs {
		for _, tp := range append([]*types.Package{pkg.Types}, pkg.Types.Imports()...) {
			if !scanned[tp] {
				scanned[tp] = true
				idx.addInterfaces(tp)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				idx.addUses(pkg.Info, decl)
			}
		}
	}
	p.refs = idx
	return idx
}

// addInterfaces indexes tp's package-level interface types by the
// method names they declare. Generic interfaces are left out: nothing
// in the module implements one, and Implements leaves uninstantiated
// generics unspecified.
func (idx *refIndex) addInterfaces(tp *types.Package) {
	scope := tp.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i).Name()
				idx.ifaces[m] = append(idx.ifaces[m], it)
			}
		}
	}
}

// viaInterface reports whether the method obj is exempt: its name is in
// errorProtocol, or its receiver type or a pointer to it implements an
// indexed interface that declares its name.
func (idx *refIndex) viaInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if errorProtocol[fn.Name()] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range idx.ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// addUses records the objects decl references, leaving out the objects
// decl (or, in a grouped declaration, the spec at hand) declares itself
// and the receiver of a method.
func (idx *refIndex) addUses(info *types.Info, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own := []types.Object{info.Defs[d.Name]}
		idx.addUsesIn(info, d.Type, own)
		if d.Body != nil {
			idx.addUsesIn(info, d.Body, own)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var own []types.Object
			for _, id := range specNames(spec) {
				own = append(own, info.Defs[id])
			}
			idx.addUsesIn(info, spec, own)
		}
	}
}

func (idx *refIndex) addUsesIn(info *types.Info, n ast.Node, own []types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := origin(info.Uses[id]); obj != nil && !slices.Contains(own, obj) {
				idx.used[obj] = true
			}
		}
		return true
	})
}

// specNames lists the identifiers a type or value spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// origin maps an instantiated generic function, method or field to the
// object its source declares.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func runTestonly(pass *Pass) error {
	if !pathHasSegments(pass.Pkg.Path(), "internal") {
		return nil
	}
	idx := pass.prog.references()
	report := func(id *ast.Ident, kind string) {
		obj := pass.TypesInfo.Defs[id]
		if id.Name == "_" || obj == nil || idx.used[obj] {
			return
		}
		pass.Reportf(id.Pos(), "%s %s is referenced by no non-test file of the module: delete it, move it into a _test.go file, or allow it naming its user", kind, id.Name)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv == nil && d.Name.Name == "init":
				case d.Recv == nil:
					report(d.Name, "func")
				case !idx.viaInterface(pass.TypesInfo.Defs[d.Name]):
					report(d.Name, "method")
				}
			case *ast.GenDecl:
				kind := "const"
				switch d.Tok {
				case token.IMPORT:
					continue
				case token.TYPE:
					kind = "type"
				case token.VAR:
					kind = "var"
				}
				for _, spec := range d.Specs {
					for _, id := range specNames(spec) {
						report(id, kind)
					}
				}
			}
		}
	}
	return nil
}
