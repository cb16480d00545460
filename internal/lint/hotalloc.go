package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const hotpathDirective = "shoggoth:hotpath"

// tensorAllocFuncs are the tensor-package entry points that allocate a fresh
// result, each mapped to the destination-passing or pooled discipline that
// replaces it on the hot path (PR 2's zero-allocation contract).
var tensorAllocFuncs = map[string]string{
	"New":        "tensor.Ensure on a pinned buffer or Pool.Get/Put scratch",
	"FromSlice":  "a pinned *Matrix reshaped with tensor.Ensure",
	"FromRows":   "tensor.Ensure plus row copies into pinned scratch",
	"MeanRows":   "tensor.MeanRowsInto",
	"VarRows":    "tensor.VarRowsInto",
	"SelectRows": "tensor.SelectRowsInto",
	"Clone":      "tensor.Ensure plus copy",
}

// HotAlloc enforces the zero-allocation contract on the train/inference hot
// path. Entry points carry a //shoggoth:hotpath line in their doc comment;
// every function reachable from one inside the same package (static calls,
// plus interface dispatch to package-local implementations) is hot. In hot
// functions the analyzer flags (a) calls into the tensor package's
// allocating constructors, naming the *Into or pooled replacement, and
// (b) make/append growth that is not behind a first-time/growth guard — an
// enclosing if testing cap(), len() or nil, the pinned-scratch grow-once
// idiom (ensureInts, tensor.Ensure) that steady state never re-enters.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocating tensor constructors and unguarded make/append in functions reachable from a //shoggoth:hotpath entry point",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	// Collect every function declaration and the hotpath-annotated entries.
	decls := make(map[types.Object]*ast.FuncDecl)
	var entries []types.Object
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			decls[obj] = fd
			if hasHotpathDirective(fd.Doc) {
				entries = append(entries, obj)
			}
		}
	}
	if len(entries) == 0 {
		return
	}

	// BFS the intra-package call graph from the entries.
	hot := make(map[types.Object]bool)
	queue := append([]types.Object(nil), entries...)
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if hot[obj] {
			continue
		}
		hot[obj] = true
		fd := decls[obj]
		if fd == nil {
			continue
		}
		for _, callee := range localCallees(pass, fd, decls) {
			if !hot[callee] {
				queue = append(queue, callee)
			}
		}
	}

	for obj := range hot {
		checkHotFunc(pass, decls[obj])
	}
}

// hasHotpathDirective reports whether the doc comment carries
// //shoggoth:hotpath.
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), hotpathDirective) {
			return true
		}
	}
	return false
}

// localCallees resolves the package-local functions fd can invoke: direct
// function and method calls, plus interface method calls resolved to every
// package-local implementation (class-hierarchy style, so nn's Layer
// dispatch loop propagates hotness into the concrete layers).
func localCallees(pass *Pass, fd *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) []types.Object {
	var out []types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticFunc(pass.Info, call)
		if fn == nil || fn.Pkg() != pass.Pkg {
			return true
		}
		if _, ok := decls[fn]; ok {
			out = append(out, fn)
			return true
		}
		// Interface method: propagate to every local implementation.
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				out = append(out, implementers(pass, iface, fn.Name(), decls)...)
			}
		}
		return true
	})
	return out
}

// implementers finds package-level types satisfying iface and returns their
// declared method named name.
func implementers(pass *Pass, iface *types.Interface, name string, decls map[types.Object]*ast.FuncDecl) []types.Object {
	var out []types.Object
	scope := pass.Pkg.Scope()
	for _, tn := range scope.Names() {
		obj, ok := scope.Lookup(tn).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		T := obj.Type()
		if _, isIface := T.Underlying().(*types.Interface); isIface {
			continue
		}
		impl := types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface)
		if !impl {
			continue
		}
		m, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), true, pass.Pkg, name)
		if fn, ok := m.(*types.Func); ok {
			if _, hasDecl := decls[fn]; hasDecl {
				out = append(out, fn)
			}
		}
	}
	return out
}

// checkHotFunc flags the allocations inside one hot function.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	if fd == nil {
		return
	}
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch callee := calleeOf(pass.Info, call).(type) {
		case *types.Func:
			if callee.Pkg() != nil && callee.Pkg() != pass.Pkg && callee.Pkg().Name() == "tensor" {
				if repl, alloc := tensorAllocFuncs[callee.Name()]; alloc {
					pass.Reportf(call.Pos(),
						"hot path allocates: tensor.%s builds a fresh matrix every call; use %s (PR 2 zero-allocation contract)",
						callee.Name(), repl)
				}
			}
		case *types.Builtin:
			name := callee.Name()
			if (name == "make" || name == "append") && !growthGuarded(stack) {
				pass.Reportf(call.Pos(),
					"hot path allocates: unguarded %s runs every call; pin the buffer and grow it behind a cap/len/nil first-time guard, or use pooled scratch (PR 2 zero-allocation contract)",
					name)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// growthGuarded reports whether the innermost enclosing if-statement
// condition tests capacity, length or nil-ness — the grow-once idiom whose
// body steady state never re-enters.
func growthGuarded(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					guarded = true
				}
			case *ast.BinaryExpr:
				if e.Op == token.EQL || e.Op == token.NEQ {
					for _, side := range []ast.Expr{e.X, e.Y} {
						if id, ok := ast.Unparen(side).(*ast.Ident); ok && id.Name == "nil" {
							guarded = true
						}
					}
				}
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}
