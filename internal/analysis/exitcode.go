package analysis

import (
	"go/ast"
	"go/types"
)

// Exitcode guards the process-exit discipline internal/cli documents:
// the expfleet supervisor retries a child that exits 1 and quarantines
// a 2, so an exit code is an API, not a convenience. Three rules:
//
//   - library code (internal/*) never calls os.Exit or log.Fatal*: a
//     library that exits takes the decision — retry, quarantine,
//     drain — away from the command that owns it. Libraries return
//     errors.
//
//   - a command (cmd/*) may exit only through the vocabulary: every
//     os.Exit argument must be one of internal/cli's Exit* constants or
//     the result of calling a same-package function (the
//     `func main() { os.Exit(run()) }` idiom, where run returns codes
//     from the same vocabulary). A bare os.Exit(1) compiles but is
//     invisible to the conventions README "Operations" promises.
//     log.Fatal* is os.Exit(1) in disguise and is banned outright.
//
//   - commands do not panic: a panic unwinds to exit code 2, which the
//     supervisor treats as "retry cannot succeed" — almost never what a
//     crash means. Libraries may still panic on contract violations
//     (mat's dimension checks); those are bugs, not exits, and the
//     deferred-recover story belongs to the caller.
var Exitcode = &Analyzer{
	Name: "exitcode",
	Doc:  "os.Exit only in cmd/* and only with internal/cli codes (or a same-package run()); no panic in cmd/*; no log.Fatal anywhere",
	Run:  runExitcode,
}

func runExitcode(pass *Pass) error {
	path := pass.Pkg.Path()
	isCmd := pathHasSegments(path, "cmd")
	// Same scope as layering: internal/* and cmd/*. The examples/ demo
	// binaries are documentation, where log.Fatal on a setup error is the
	// idiom readers expect.
	if !isCmd && !pathHasSegments(path, "internal") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, fn, ok := pkgFuncCall(pass.TypesInfo, call); ok {
				switch {
				case pkg == "os" && fn == "Exit":
					checkOsExit(pass, call, isCmd)
				case pkg == "log" && (fn == "Fatal" || fn == "Fatalf" || fn == "Fatalln" ||
					fn == "Panic" || fn == "Panicf" || fn == "Panicln"):
					pass.Reportf(call.Pos(),
						"log.%s hides an exit (or panic) inside a log call: return an error, or exit through the internal/cli vocabulary", fn)
				}
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && isCmd {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					pass.Reportf(call.Pos(),
						"panic in command code unwinds to exit status 2, which the fleet supervisor quarantines as unretryable: handle the error and exit through internal/cli")
				}
			}
			return true
		})
	}
	return nil
}

func checkOsExit(pass *Pass, call *ast.CallExpr, isCmd bool) {
	if !isCmd {
		pass.Reportf(call.Pos(),
			"os.Exit in library package %s: return an error and let the owning command pick the exit code", pass.Pkg.Path())
		return
	}
	if len(call.Args) != 1 {
		return
	}
	if exitArgSanctioned(pass, call.Args[0]) {
		return
	}
	pass.Reportf(call.Args[0].Pos(),
		"os.Exit argument is not part of the exit-code vocabulary: use an internal/cli Exit* constant or a same-package run() result")
}

// exitArgSanctioned reports whether e is an internal/cli exit constant, a
// constant locally aliased to one, or a call to a function declared in
// the same command package (the run() idiom).
func exitArgSanctioned(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		obj, ok := pass.TypesInfo.Uses[e.Sel].(*types.Const)
		return ok && obj.Pkg() != nil && pathHasSegments(obj.Pkg().Path(), "internal", "cli")
	case *ast.CallExpr:
		var obj *types.Func
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			obj, _ = pass.TypesInfo.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			obj, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		}
		return obj != nil && obj.Pkg() == pass.Pkg
	}
	return false
}
