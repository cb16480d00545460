package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// rootPkg is the import path of the module's public API.
const rootPkg = "shoggoth"

// reachRoot reports whether fd is a root of what the module ships: every
// function a main package declares (the binaries under cmd/ and the
// benchmark runner), every root-package function or method the root
// package's Example functions name (ex), and every method whose name some
// interface declares. (init functions and package-level initializers are
// roots too; unreachedCode walks them directly.) An exported root function
// that neither a program nor an Example uses is not a root: the API is what
// they show.
func reachRoot(pkg *Package, fd *ast.FuncDecl, fn *types.Func, ifaceMethods map[string]bool, ex exampleRefs) bool {
	switch {
	case pkg.Name == "main":
		return true
	case pkg.Path == rootPkg && fd.Recv == nil && ex.pkg[fn.Name()]:
		return true
	case pkg.Path == rootPkg && fd.Recv != nil && ex.sel[fn.Name()]:
		return true
	case fd.Recv != nil && ifaceMethods[fn.Name()]:
		return true
	}
	return false
}

// unreachedDecl is one declaration no root reaches.
type unreachedDecl struct {
	Pos   token.Position
	Lines int
	// Root marks a declaration of the root package, which is deleted
	// rather than listed.
	Root bool
}

// unreachedCode runs the reachability pass over pkgs (non-test files only,
// as Load returns them) and returns every function or method declared in an
// internal package or the root package, and every exported type, alias, var
// and const group of the root package, that no root reaches. A const group
// counts as one export, keyed by its first name. Package-level types, vars
// and consts of every package are nodes of the graph, so a type a reached
// declaration names reaches the types its fields name. Functions are keyed
// by types.Func.FullName, other declarations by package path and name, because
// each package is checked from source against its imports' export data, so
// one object is a different types.Object in every package that names it.
// An edge is any reference from a reached declaration — a function's
// signature and body, a type's definition, a var's initializer — to a
// declared function or package-level object: a call, a method value, a
// function stored in a table, a type in a field or a parameter. declared
// holds every declaration the pass tracks, by the same key.
func unreachedCode(pkgs []*Package) (unreached map[string]unreachedDecl, declared map[string]bool) {
	ifaceMethods := interfaceMethodNames(pkgs)
	var ex exampleRefs
	for _, pkg := range pkgs {
		if pkg.Path == rootPkg {
			ex = scanExamples(pkg.Dir)
		}
	}

	type decl struct {
		pkg      *Package
		node     ast.Node
		reported bool // a function, or an exported root declaration
	}
	decls := make(map[string]decl)
	group := make(map[string]string) // a const's key → its group's key
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
						queue = append(queue, references(pkg.Info, d.Body)...)
						continue
					}
					decls[fn.FullName()] = decl{pkg, d, true}
					if reachRoot(pkg, d, fn, ifaceMethods, ex) {
						queue = append(queue, fn.FullName())
					}
				case *ast.GenDecl:
					// Package-level initializers run whether or not anything
					// names the variable.
					if d.Tok == token.VAR {
						queue = append(queue, references(pkg.Info, d)...)
					}
					for _, ds := range declSpecs(pkg.Path, d) {
						decls[ds.key] = decl{pkg, ds.node, pkg.Path == rootPkg && ds.exported}
						for _, n := range ds.names {
							if k := pkg.Path + "." + n; k != ds.key {
								group[k] = ds.key
							}
							if pkg.Path == rootPkg && ex.pkg[n] {
								queue = append(queue, ds.key)
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[string]bool)
	for len(queue) > 0 {
		key := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if g, ok := group[key]; ok {
			key = g
		}
		if reached[key] {
			continue
		}
		reached[key] = true
		if d, ok := decls[key]; ok {
			queue = append(queue, references(d.pkg.Info, d.node)...)
		}
	}

	unreached = make(map[string]unreachedDecl)
	declared = make(map[string]bool, len(decls))
	for key, d := range decls {
		declared[key] = true
		root := d.pkg.Path == rootPkg
		if reached[key] || !d.reported || !root && !strings.Contains(d.pkg.Path+"/", "/internal/") {
			continue
		}
		fset := d.pkg.Fset
		unreached[key] = unreachedDecl{
			Pos:   fset.Position(d.node.Pos()),
			Lines: fset.Position(d.node.End()).Line - fset.Position(d.node.Pos()).Line + 1,
			Root:  root,
		}
	}
	return unreached, declared
}

// declSpec is one package-level type, var or const group, keyed by its
// package-qualified name (a const group by its first name).
type declSpec struct {
	key      string
	node     ast.Node
	names    []string
	exported bool
}

// declSpecs splits a GenDecl of the package at path into its specs; a const
// declaration, group or not, is one.
func declSpecs(path string, d *ast.GenDecl) []declSpec {
	if d.Tok == token.CONST {
		var names []string
		for _, spec := range d.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				names = append(names, n.Name)
			}
		}
		return []declSpec{{path + "." + names[0], d, names, ast.IsExported(names[0])}}
	}
	var out []declSpec
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			out = append(out, declSpec{path + "." + s.Name.Name, s, []string{s.Name.Name}, s.Name.IsExported()})
		case *ast.ValueSpec:
			for _, n := range s.Names {
				out = append(out, declSpec{path + "." + n.Name, s, []string{n.Name}, n.IsExported()})
			}
		}
	}
	return out
}

// references lists the keys of the functions and package-level objects
// node refers to, generic instantiations resolved to their origin.
func references(info *types.Info, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			out = append(out, obj.Origin().FullName())
		case *types.TypeName, *types.Var, *types.Const:
			if p := obj.Pkg(); p != nil && obj.Parent() == p.Scope() {
				out = append(out, p.Path()+"."+obj.Name())
			}
		}
		return true
	})
	return out
}

// exampleRefs is what the root package's Example functions name, found by
// a syntactic scan: pkg holds every X of a shoggoth.X, sel every other
// selector's name (a method call, whose receiver an untyped scan cannot
// resolve). The scan follows the test package's own declarations that an
// Example names, so a helper or a type (with its methods) an Example is
// built on counts as part of it.
type exampleRefs struct {
	pkg, sel map[string]bool
}

// scanExamples scans the external test files (package shoggoth_test) in
// dir, the root package's directory.
func scanExamples(dir string) exampleRefs {
	ex := exampleRefs{pkg: map[string]bool{}, sel: map[string]bool{}}
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	fset := token.NewFileSet()
	local := map[string][]ast.Node{} // a test-package name → its declarations
	var queue []ast.Node
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name != rootPkg+"_test" {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil { // a method goes with its type
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name
					}
				}
				local[name] = append(local[name], d)
				if d.Recv == nil && strings.HasPrefix(name, "Example") {
					queue = append(queue, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						local[s.Name.Name] = append(local[s.Name.Name], s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							local[n.Name] = append(local[n.Name], s)
						}
					}
				}
			}
		}
	}
	seen := map[ast.Node]bool{}
	for len(queue) > 0 {
		node := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[node] {
			continue
		}
		seen[node] = true
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == rootPkg {
					ex.pkg[n.Sel.Name] = true
					return false
				}
				ex.sel[n.Sel.Name] = true
			case *ast.Ident:
				queue = append(queue, local[n.Name]...)
			}
			return true
		})
	}
	return ex
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
