package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// HotPathAlloc enforces the zero-allocation contract of functions marked
// //reach:hotpath.
//
// The observer Query, the cache lookup, histogram Record and the
// hop-label merge intersection are on every request; their benchmarks
// pin 0 allocs/op, and the CI perf gate fails on ns/op growth — but
// neither names the line that regressed. This analyzer rejects the
// constructs that put allocation (or fmt's reflection) on an annotated
// function's source lines:
//
//   - calls into fmt or log (formatting allocates, always)
//   - non-constant string concatenation
//   - slice and map composite literals, make, new, append
//   - address-of composite literal (&T{...} escapes)
//   - string<->[]byte/[]rune conversions
//   - function literals (closure headers allocate when they capture),
//     defer, and go statements
//   - interface boxing: passing, assigning or returning a concrete
//     value where an interface is expected
//
// Calls to ordinary functions are allowed — callees with their own
// allocations are the AllocsPerRun tests' job — so annotate the leaf
// helpers a hot path relies on (e.g. bump) as well.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions marked //reach:hotpath must not allocate",
	Run:  runHotPathAlloc,
}

// HotPathDirective is the annotation that opts a function into the
// zero-allocation contract.
const HotPathDirective = "//reach:hotpath"

func runHotPathAlloc(pass *analysis.Pass) error {
	funcDecls(pass, func(decl *ast.FuncDecl) {
		if !hasDirective(decl.Doc, HotPathDirective) || decl.Body == nil {
			return
		}
		h := &hotPathChecker{pass: pass, fn: decl}
		ast.Inspect(decl.Body, h.check)
	})
	return nil
}

type hotPathChecker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
}

func (h *hotPathChecker) reportf(pos token.Pos, format string, args ...any) {
	h.pass.Reportf(pos, "hot path %s: "+format, append([]any{h.fn.Name.Name}, args...)...)
}

// check is the ast.Inspect callback; returning false stops descent (used
// for function literals, which are flagged once, not scanned inside).
func (h *hotPathChecker) check(n ast.Node) bool {
	info := h.pass.TypesInfo
	switch n := n.(type) {
	case *ast.FuncLit:
		h.reportf(n.Pos(), "function literal — closures allocate when they capture")
		return false
	case *ast.DeferStmt:
		h.reportf(n.Pos(), "defer — the deferred frame is heap-allocated in loops and costs even when stack-allocated")
	case *ast.GoStmt:
		h.reportf(n.Pos(), "goroutine launch allocates a stack")
	case *ast.CompositeLit:
		switch info.Types[n].Type.Underlying().(type) {
		case *types.Slice:
			h.reportf(n.Pos(), "slice literal allocates")
		case *types.Map:
			h.reportf(n.Pos(), "map literal allocates")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				h.reportf(n.Pos(), "&composite literal escapes to the heap")
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := info.Types[n]; ok && tv.Value == nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					h.reportf(n.Pos(), "non-constant string concatenation allocates")
				}
			}
		}
	case *ast.CallExpr:
		h.checkCall(n)
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if len(n.Lhs) != len(n.Rhs) {
				break // multi-value unpacking; destination types match by construction
			}
			if lhsType, ok := info.Types[n.Lhs[i]]; ok {
				h.checkBoxing(rhs, lhsType.Type, "assignment")
			}
		}
	case *ast.ValueSpec:
		// var x InterfaceType = concrete boxes just like an assignment.
		if n.Type != nil {
			if tv, ok := info.Types[n.Type]; ok {
				for _, v := range n.Values {
					h.checkBoxing(v, tv.Type, "assignment")
				}
			}
		}
	case *ast.ReturnStmt:
		sig := h.fnSignature()
		if sig != nil && len(n.Results) == sig.Results().Len() {
			for i, res := range n.Results {
				h.checkBoxing(res, sig.Results().At(i).Type(), "return")
			}
		}
	}
	return true
}

func (h *hotPathChecker) fnSignature() *types.Signature {
	obj, ok := h.pass.TypesInfo.Defs[h.fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

func (h *hotPathChecker) checkCall(call *ast.CallExpr) {
	info := h.pass.TypesInfo

	// Type conversions: string<->[]byte/[]rune copy through the heap.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		if conversionAllocates(dst, src) {
			h.reportf(call.Pos(), "conversion %s -> %s allocates", src, dst)
		}
		if isInterface(dst) && src != nil && !isInterface(src) {
			h.reportf(call.Pos(), "conversion to interface %s boxes the operand", dst)
		}
		return
	}

	// Builtins that allocate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				h.reportf(call.Pos(), "make allocates")
			case "new":
				h.reportf(call.Pos(), "new allocates")
			case "append":
				h.reportf(call.Pos(), "append may grow and allocate")
			}
			return
		}
	}

	switch path := calleePath(info, call); path {
	case "fmt":
		h.reportf(call.Pos(), "fmt call — formatting reflects and allocates")
		return
	case "log":
		h.reportf(call.Pos(), "log call — logging formats and allocates")
		return
	}

	// Interface boxing at the call boundary: a concrete argument for an
	// interface parameter allocates unless the callee is inlined and the
	// value proven not to escape — a bet hot paths don't get to make.
	fn := callee(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				paramType = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramType = s.Elem()
			}
		case i < params.Len():
			paramType = params.At(i).Type()
		}
		if paramType != nil {
			h.checkBoxing(arg, paramType, "argument to "+fn.Name())
		}
	}
}

// checkBoxing reports expr if storing it into dst boxes a concrete
// value into an interface.
func (h *hotPathChecker) checkBoxing(expr ast.Expr, dst types.Type, context string) {
	if !isInterface(dst) {
		return
	}
	tv, ok := h.pass.TypesInfo.Types[ast.Unparen(expr)]
	if !ok || tv.Type == nil {
		return
	}
	if isInterface(tv.Type) || tv.IsNil() {
		return
	}
	h.reportf(expr.Pos(), "%s boxes %s into interface %s", context, tv.Type, dst)
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// conversionAllocates reports string<->[]byte/[]rune conversions.
func conversionAllocates(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
