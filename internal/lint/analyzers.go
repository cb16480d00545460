package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WallClock,
		GlobalRand,
		MapRange,
		HotAlloc,
		LockedCallback,
	}
}

// ByName resolves a subset of the suite by analyzer name.
func ByName(names []string) ([]*Analyzer, bool) {
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// calleeOf resolves a call expression to the object it invokes (a *types.Func
// for static function/method calls, a *types.Var for calls through a function
// value, a *types.Builtin for builtins). Conversions resolve to a TypeName
// and are never confused with calls by the analyzers.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation: f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[sel.Sel]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[sel.Sel]
		}
	}
	return nil
}

// staticFunc returns the called *types.Func when the call is a direct
// function or method call, nil otherwise.
func staticFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := calleeOf(info, call).(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the object's defining package, or ""
// for builtins and universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isBinaryPkg reports whether the package path belongs to the module's
// binaries, which run in wall-clock reality by design.
func isBinaryPkg(path string) bool {
	return strings.HasPrefix(path, "shoggoth/cmd/")
}
