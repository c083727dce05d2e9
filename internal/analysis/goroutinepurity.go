package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroutinepurity encodes the contract the sweep runner relies on for
// byte-identical `-workers N` output: a goroutine body may only publish
// results through index-addressed slice slots (`errs[i] = …`), never by
// mutating shared captured state, whose final value would depend on
// goroutine interleaving. Inside `go func` closures in internal/exp and
// internal/mat it flags writes where the target is captured from outside
// the closure:
//
//   - plain or compound assignment (and ++/--) to a captured variable;
//   - writes into a captured map (also a data race);
//   - writes through a captured pointer or to a field of a captured value.
//
// Indexing into a captured slice stays legal — distinctness of the indices
// is the runner's seed-hashing job, not something syntax can prove — and
// anything declared inside the closure is free game.
var Goroutinepurity = &Analyzer{
	Name: "goroutinepurity",
	Doc:  "inside go func closures, only index-addressed slice slots may be written through captures",
	Run:  runGoroutinepurity,
}

var goroutinepurityRestricted = [][]string{
	{"internal", "exp"},
	{"internal", "mat"},
}

func runGoroutinepurity(pass *Pass) error {
	restricted := false
	for _, segs := range goroutinepurityRestricted {
		if pathHasSegments(pass.Pkg.Path(), segs...) {
			restricted = true
			break
		}
	}
	if !restricted {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineBody(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkGoroutineBody walks one goroutine closure. Nested function
// literals share the root's capture boundary (running them still happens
// on this goroutine), but a nested `go func` starts a goroutine of its
// own and is checked separately by the outer Inspect.
func checkGoroutineBody(pass *Pass, root *ast.FuncLit) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if _, ok := n.Call.Fun.(*ast.FuncLit); ok {
					for _, arg := range n.Call.Args {
						walk(arg)
					}
					return false
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true // := can only create or shadow, never write a capture
				}
				for _, lhs := range n.Lhs {
					checkGoroutineWrite(pass, root, lhs)
				}
			case *ast.IncDecStmt:
				checkGoroutineWrite(pass, root, n.X)
			}
			return true
		})
	}
	walk(root.Body)
}

func checkGoroutineWrite(pass *Pass, root *ast.FuncLit, lhs ast.Expr) {
	switch e := lhs.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		obj, ok := pass.TypesInfo.ObjectOf(e).(*types.Var)
		if !ok || declaredWithin(obj, root) {
			return
		}
		pass.Reportf(e.Pos(),
			"goroutine writes captured variable %s: the final value depends on interleaving — publish through an index-addressed slice slot instead",
			e.Name)
	case *ast.IndexExpr:
		base, ok := baseIdent(e.X)
		if !ok {
			return
		}
		obj, isVar := pass.TypesInfo.ObjectOf(base).(*types.Var)
		if !isVar || declaredWithin(obj, root) {
			return
		}
		if t := pass.TypesInfo.TypeOf(e.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(e.Pos(),
					"goroutine writes captured map %s: concurrent map writes race and land in arrival order — collect into per-index slots and merge after the join",
					base.Name)
			}
		}
		// Captured slice/array slot: the sanctioned publishing pattern.
	case *ast.StarExpr:
		if base, ok := baseIdent(e.X); ok {
			if obj, isVar := pass.TypesInfo.ObjectOf(base).(*types.Var); isVar && !declaredWithin(obj, root) {
				pass.Reportf(e.Pos(),
					"goroutine writes through captured pointer %s: the pointee's final value depends on interleaving — use an index-addressed slice slot",
					base.Name)
			}
		}
	case *ast.SelectorExpr:
		if base, ok := baseIdent(e.X); ok {
			if obj, isVar := pass.TypesInfo.ObjectOf(base).(*types.Var); isVar && !declaredWithin(obj, root) {
				pass.Reportf(e.Pos(),
					"goroutine writes field %s of captured %s: shared-struct mutation depends on interleaving — use an index-addressed slice slot",
					e.Sel.Name, base.Name)
			}
		}
	case *ast.ParenExpr:
		checkGoroutineWrite(pass, root, e.X)
	}
}

// baseIdent returns the leftmost identifier of a selector/index/paren
// chain: x for x.a[i].b.
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
