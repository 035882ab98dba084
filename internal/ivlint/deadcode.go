package ivlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadcode reports package-level declarations — funcs, methods, types,
// vars and consts — that no program entry point reaches. The roots are
// every main function and every init function of the program Load builds:
// all packages of the module (its commands and examples) plus the nested
// modules in nestedRoots (simbench, the repository benchmark). Tests are
// not roots, so an identifier only tests call is dead.
//
// The walk follows references resolved by the type checker. Each package
// sees its dependencies through export data, so objects are matched across
// packages by qualified name (pkgpath.Name, pkgpath.Recv.Name). Calls
// through an interface have no static callee; instead a method counts as
// reached when its receiver type is reached and some interface in the
// program or its imports declares a method of that name.
//
// Intentional API that nothing reaches carries
//
//	//ivlint:allow deadcode — <reason>
//
// on its declaration line or the line above.
var Deadcode = &Analyzer{
	Name:            "deadcode",
	Doc:             "report package-level declarations that no main or init reaches",
	PackagePrefixes: []string{"ivleague/"},
	Run:             runDeadcode,
}

func runDeadcode(p *Pass) {
	for _, d := range declsOf(p.Files, p.TypesInfo) {
		if d.key != "" && !d.root && !p.live[d.key] {
			p.Reportf(d.pos, "%s is not reached from any main or init", strings.TrimPrefix(d.key, p.Pkg.Path()+"."))
		}
	}
}

// decl is one package-level declaration and the objects it references.
type decl struct {
	key  string // objKey of the declared object; "" for blank
	pos  token.Pos
	root bool // main, init, or a blank var, whose initializer runs at start-up
	refs []string
}

// declsOf lists the package-level declarations of files in source order.
func declsOf(files []*ast.File, info *types.Info) []decl {
	var out []decl
	add := func(id *ast.Ident, n ast.Node, root bool) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		refs := refsIn(n, info)
		// A const repeated implicitly in an iota group names its type only
		// in an earlier spec.
		if t, ok := obj.Type().(*types.Named); ok {
			if k := objKey(t.Obj()); k != "" {
				refs = append(refs, k)
			}
		}
		out = append(out, decl{key: objKey(obj), pos: id.Pos(), root: root, refs: refs})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				entry := d.Name.Name == "init" || (d.Name.Name == "main" && f.Name.Name == "main")
				add(d.Name, d, d.Recv == nil && entry)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s, id.Name == "_")
						}
					}
				}
			}
		}
	}
	return out
}

// refsIn returns the qualified names of the package-level objects and
// methods referenced inside n.
func refsIn(n ast.Node, info *types.Info) []string {
	var refs []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := objKey(info.Uses[id]); k != "" {
				refs = append(refs, k)
			}
		}
		return true
	})
	return refs
}

// objKey is obj's program-wide name: pkgpath.Name for a package-level
// object, pkgpath.Recv.Name for a method of a named type, "" otherwise.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok || types.IsInterface(n) {
				return "" // interface method
			}
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // local or field
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// liveSet returns the qualified names every main and init of prog reaches.
func liveSet(prog []*Package) map[string]bool {
	ifaces := interfaceMethodNames(prog)
	edges := map[string][]string{}
	var roots []string
	for _, pkg := range prog {
		for _, d := range declsOf(pkg.Files, pkg.TypesInfo) {
			node := d.key
			if node == "" { // a blank var initializes at start-up, like init
				node = pkg.PkgPath + ".init"
			}
			edges[node] = append(edges[node], d.refs...)
			if d.root {
				roots = append(roots, node)
			}
		}
		// A reached type reaches each of its methods that an interface
		// call could dispatch to.
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); ifaces[m.Name()] {
					edges[objKey(tn)] = append(edges[objKey(tn)], objKey(m))
				}
			}
		}
	}
	live := map[string]bool{}
	for k := range reach(roots, edges) {
		live[k] = true
	}
	return live
}

// interfaceMethodNames collects the method names of every interface type
// declared in prog, in any package prog imports, or written as a literal.
func interfaceMethodNames(prog []*Package) map[string]bool {
	// error's method, and the methods package errors asserts through
	// unnamed interfaces that export data does not show.
	names := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog {
		visit(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return names
}

// reach walks edges breadth-first from roots, in order, and maps each
// reached node to the root that first reached it.
func reach[K comparable](roots []K, edges map[K][]K) map[K]K {
	rootOf := map[K]K{}
	var queue []K
	for _, r := range roots {
		if _, seen := rootOf[r]; !seen {
			rootOf[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range edges[cur] {
			if _, seen := rootOf[next]; !seen {
				rootOf[next] = rootOf[cur]
				queue = append(queue, next)
			}
		}
	}
	return rootOf
}
