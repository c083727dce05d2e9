package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc keeps the per-iteration hot paths allocation-free. The RPCA
// solver steps, the mat arena kernels, and simnet's refill/routing inner
// loops run millions of times per experiment; PR 7 and PR 8 bought their
// speedups precisely by hoisting every allocation out of them into
// arenas and reusable scratch ("Allocation-free after arena binding").
// Nothing enforced that property: one convenient append or fmt.Sprintf
// in a later diff would silently reintroduce per-iteration garbage and
// the benchmarks would only notice long after review.
//
// A function opts in by carrying the marker line
//
//	//netlint:hotpath
//
// in its doc comment. Inside an annotated body the allocating constructs
// are findings:
//
//   - make and new
//   - append whose destination is not capacity-hinted — reset earlier in
//     the same body via `x = x[:0]` (or `x := y[:0]`, or appending to
//     `x[:0]` directly, or `x = make([]T, 0, n)`), the arena-reuse idiom
//     the fill and routing scratch already follow
//   - map and slice composite literals (struct and array literals are
//     allowed: value structs stay on the stack)
//   - closure literals and go statements
//   - any fmt call (Sprintf and friends allocate; error paths that
//     genuinely need one carry an allow naming the reason)
//   - a float-slice argument passed in an interface-typed parameter slot
//     (the box escapes)
//
// Calls are where facts come in. A same-package callee is visible in the
// same review unit and is trusted. A module-internal callee from another
// package is opaque at review time, so it must itself be annotated:
// hotalloc exports a HotpathFact for every annotated function, and a
// cross-package call whose callee lacks the fact is a finding. That is
// how (*ialmIter).step may call mat.LinComb3Into (annotated, proven
// clean) while a call to some future mat helper that allocates would be
// rejected until the helper is annotated — and thereby checked — too.
// Non-module callees (the standard library) and interface-method calls
// are outside the property and are not checked.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//netlint:hotpath functions must be free of allocating constructs; cross-package callees must be hotpath-annotated",
	Run:  runHotalloc,
}

// HotpathFact marks a function annotated //netlint:hotpath, and therefore
// checked allocation-free by this analyzer in its defining package.
// Downstream packages consume it to validate their own hotpath calls.
type HotpathFact struct{}

// AFact marks HotpathFact as a Fact.
func (*HotpathFact) AFact() {}

// hotpathMarker is the annotation line looked for in doc comments.
const hotpathMarker = "//netlint:hotpath"

func isHotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathMarker {
			return true
		}
	}
	return false
}

func runHotalloc(pass *Pass) error {
	// Export facts for every annotated function first, so that a
	// same-package consumer analyzed in the same pass — and every
	// downstream package in the session — sees the full set.
	var annotated []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathAnnotated(fd) {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				pass.ExportObjectFact(obj, &HotpathFact{})
			}
			annotated = append(annotated, fd)
		}
	}
	for _, fd := range annotated {
		(&hotallocChecker{pass: pass, fn: fd}).check()
	}
	return nil
}

type hotallocChecker struct {
	pass   *Pass
	fn     *ast.FuncDecl
	hinted map[string]bool
}

func (c *hotallocChecker) reportf(pos token.Pos, format string, args ...any) {
	args = append([]any{c.fn.Name.Name}, args...)
	c.pass.Reportf(pos, "%s is //netlint:hotpath but "+format, args...)
}

// isCapHint reports whether e is a capacity-reuse expression: a reslice
// to zero length (`x[:0]`) or a `make([]T, 0, n)` that pre-sizes the
// backing array. Assigning one to a variable licenses appends to it.
func isCapHint(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SliceExpr:
		if e.Slice3 {
			return false
		}
		lit, ok := e.High.(*ast.BasicLit)
		return ok && lit.Value == "0"
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) == 3 {
			lit, ok := e.Args[1].(*ast.BasicLit)
			return ok && lit.Value == "0"
		}
	}
	return false
}

// collectHints records every variable the body resets to zero length,
// keyed by expression text so `s.fillCap = s.fillCap[:0]` hints the
// later `append(s.fillCap, …)`.
func (c *hotallocChecker) collectHints() {
	c.hinted = map[string]bool{}
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if isCapHint(rhs) {
				c.hinted[types.ExprString(as.Lhs[i])] = true
			}
		}
		return true
	})
}

func (c *hotallocChecker) check() {
	c.collectHints()
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.reportf(n.Pos(), "builds a closure: the header and captures escape per call")
			return false // constructs inside are subsumed by this finding
		case *ast.GoStmt:
			c.reportf(n.Pos(), "spawns a goroutine: its stack and captures are allocated per call")
			return false
		case *ast.CompositeLit:
			switch c.pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Map:
				c.reportf(n.Pos(), "builds a map literal")
			case *types.Slice:
				c.reportf(n.Pos(), "builds a slice literal")
			}
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

func (c *hotallocChecker) checkCall(call *ast.CallExpr) {
	// Builtins: make/new allocate; append only with a capacity hint.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				c.reportf(call.Pos(), "allocates with %s", id.Name)
			case "append":
				if len(call.Args) > 0 && !isCapHint(call.Args[0]) &&
					!c.hinted[types.ExprString(call.Args[0])] {
					c.reportf(call.Pos(), "appends to %s without a capacity hint: reset it with x = x[:0] first (arena reuse) or justify the growth",
						types.ExprString(call.Args[0]))
				}
			}
			return
		}
	}
	if pkg, fn, ok := pkgFuncCall(c.pass.TypesInfo, call); ok && pkg == "fmt" {
		c.reportf(call.Pos(), "calls fmt.%s, which allocates its result and boxes its operands", fn)
		return
	}
	c.checkBoxing(call)
	c.checkCallee(call)
}

// checkBoxing flags a float-slice argument landing in an interface-typed
// parameter slot: the conversion heap-boxes the slice header per call.
func (c *hotallocChecker) checkBoxing(call *ast.CallExpr) {
	sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len() {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			continue
		}
		pt := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 && !call.Ellipsis.IsValid() {
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		if s, ok := c.pass.TypesInfo.TypeOf(arg).Underlying().(*types.Slice); ok && isFloat(s.Elem()) {
			c.reportf(arg.Pos(), "boxes a float slice into an interface parameter of %s", calleeName(call))
		}
	}
}

// checkCallee enforces the cross-package rule: a module-internal callee
// from another package must carry a HotpathFact.
func (c *hotallocChecker) checkCallee(call *ast.CallExpr) {
	var obj *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj, _ = c.pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		obj, _ = c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg() == c.pass.Pkg {
		return
	}
	if !pathHasSegments(obj.Pkg().Path(), "internal") {
		return // stdlib and other non-module callees: outside the property
	}
	if sig := objSignature(obj); sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return // interface dispatch: the implementation is not statically known
	}
	var fact HotpathFact
	if c.pass.ImportObjectFact(obj, &fact) {
		return
	}
	c.reportf(call.Pos(), "calls %s.%s, which is not //netlint:hotpath: annotate (and thereby check) the callee, or justify the call",
		obj.Pkg().Name(), obj.Name())
}
