package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// reachRoot reports whether fd is a root of what the module ships: every
// function a binary, an example or the benchmark runner declares, the
// exported functions and methods of the root package shoggoth, and every
// method whose name some interface declares. (init functions and
// package-level initializers are roots too; unreachedInternal walks them
// directly.) The root package's type aliases (shoggoth.System = core.System,
// …) do not make the aliased type's methods roots: the API is what package
// shoggoth itself declares.
func reachRoot(pkg *Package, fd *ast.FuncDecl, fn *types.Func, ifaceMethods map[string]bool) bool {
	switch {
	case pkg.Name == "main":
		return true
	case pkg.Path == "shoggoth" && fn.Exported():
		return true
	case fd.Recv != nil && ifaceMethods[fn.Name()]:
		return true
	}
	return false
}

// unreachedFunc is one declared function no root reaches.
type unreachedFunc struct {
	Pos   token.Position
	Lines int
}

// unreachedInternal runs the reachability pass over pkgs (non-test files
// only, as Load returns them) and returns every function or method declared
// in an internal package that no root reaches. Functions are keyed by
// types.Func.FullName because each package is checked from source against
// its imports' export data, so one function has a different *types.Func in
// every package that names it. An edge is any reference to a declared
// function from the body of a reached one: a call, a method value, a
// function stored in a table. declared holds every function the packages
// declare, by the same key.
func unreachedInternal(pkgs []*Package) (unreached map[string]unreachedFunc, declared map[string]bool) {
	ifaceMethods := interfaceMethodNames(pkgs)

	type decl struct {
		pkg *Package
		fd  *ast.FuncDecl
	}
	decls := make(map[string]decl)
	var queue []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					if d.Recv == nil && d.Name.Name == "init" {
						// A package may have many init functions, all with
						// one name: each body is a root of its own.
						queue = append(queue, referencedFuncs(pkg.Info, d.Body)...)
						continue
					}
					decls[fn.FullName()] = decl{pkg, d}
					if reachRoot(pkg, d, fn, ifaceMethods) {
						queue = append(queue, fn.FullName())
					}
				case *ast.GenDecl:
					// Package-level initializers run whether or not anything
					// names the variable.
					if d.Tok == token.VAR {
						queue = append(queue, referencedFuncs(pkg.Info, d)...)
					}
				}
			}
		}
	}

	reached := make(map[string]bool)
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		if d, ok := decls[fn]; ok && d.fd.Body != nil {
			queue = append(queue, referencedFuncs(d.pkg.Info, d.fd.Body)...)
		}
	}

	unreached = make(map[string]unreachedFunc)
	declared = make(map[string]bool, len(decls))
	for name, d := range decls {
		declared[name] = true
		if reached[name] || !strings.Contains(d.pkg.Path+"/", "/internal/") {
			continue
		}
		fset := d.pkg.Fset
		unreached[name] = unreachedFunc{
			Pos:   fset.Position(d.fd.Pos()),
			Lines: fset.Position(d.fd.End()).Line - fset.Position(d.fd.Pos()).Line + 1,
		}
	}
	return unreached, declared
}

// referencedFuncs lists the full names of the functions node refers to,
// generic instantiations resolved to their origin.
func referencedFuncs(info *types.Info, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin().FullName())
			}
		}
		return true
	})
	return out
}

// interfaceMethodNames collects the method names declared by the interfaces
// a dynamic call could go through: every interface type the module's
// packages declare or write, every interface declared by a package they
// import directly (fmt.Stringer, sort.Interface, http.Handler, …), and
// error.
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	addScope := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	seen := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		addScope(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			if !seen[imp] {
				seen[imp] = true
				addScope(imp)
			}
		}
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return names
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
