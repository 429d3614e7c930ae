package spotlight_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryDeclarationIsReached holds the program to what its binaries
// use. It type-checks every package's non-test files with the standard
// library alone, then walks references out of every main package
// (commands, examples and the benchmark) and out of what runs at package
// initialization: init functions and blank vars. A method is reached by a
// call, or when its type is reached and some interface has a method of the
// same name and signature, since a dynamic call may then reach it. Every
// package-level declaration left over must be on the allowlist in
// testdata/reach-allowlist.txt with its reason, and every allowlist entry
// must still name an unreached declaration.
func TestEveryDeclarationIsReached(t *testing.T) {
	r := &reach{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*types.Package{},
		decls:  map[types.Object][]types.Object{},
		ifaces: map[string][]types.Type{},
		seen:   map[*types.Package]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		_, err = r.load(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range r.pkgs {
		r.collectIfaces(pkg)
		if pkg.Name() == "main" {
			r.roots = append(r.roots, pkg.Scope().Lookup("main"))
		}
	}
	reached := r.walk()

	data, err := os.ReadFile("testdata/reach-allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %q has no reason", name)
		}
		allow[name] = true
	}
	used := map[string]bool{}
	var missed []string
	for obj := range r.decls {
		pkg := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "spotlight"), "/")
		// The benchmark is a root, not a subject: like make loc, this
		// check covers the program the benchmark measures.
		if reached[obj] || pkg == "bench" {
			continue
		}
		if pkg == "" {
			pkg = "."
		}
		name := pkg + "." + obj.Name()
		if tn := recvType(obj); tn != nil {
			name = pkg + "." + tn.Name() + "." + obj.Name()
		}
		if wild := pkg + ".*"; allow[wild] {
			used[wild] = true
		} else if allow[name] {
			used[name] = true
		} else {
			pos := r.fset.Position(obj.Pos())
			missed = append(missed, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("unreached: %s", m)
	}
	for key := range allow {
		if !used[key] {
			t.Errorf("allowlist entry %q names no unreached declaration", key)
		}
	}
}

// reach holds the type-checked program: every package-level declaration
// with the objects its syntax refers to, the roots, and the method
// signatures of every interface in sight, by name.
type reach struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // module packages by import path
	decls  map[types.Object][]types.Object
	roots  []types.Object
	ifaces map[string][]types.Type
	seen   map[*types.Package]bool // packages collectIfaces visited
}

// Import type-checks module packages from source and leaves the standard
// library to the default importer.
func (r *reach) Import(path string) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, "spotlight/"); ok {
		return r.load(rel)
	}
	return r.std.Import(path)
}

// load type-checks the non-test files in dir once and records their
// declarations. A directory without Go files yields nil.
func (r *reach) load(dir string) (*types.Package, error) {
	path := strings.TrimSuffix("spotlight/"+filepath.ToSlash(dir), "/.")
	if pkg, ok := r.pkgs[path]; ok {
		return pkg, nil
	}
	parsed, err := parser.ParseDir(r.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || len(parsed) == 0 {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: r}).Check(path, r.fset, files, info)
	if err != nil {
		return nil, err
	}
	r.pkgs[path] = pkg
	declare := func(name *ast.Ident, n ast.Node) {
		var refs []types.Object
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && info.Uses[id] != nil {
				o := info.Uses[id]
				if fn, ok := o.(*types.Func); ok {
					o = fn.Origin() // a generic method's instance counts as the method
				}
				refs = append(refs, o)
			}
			return true
		})
		if name.Name == "_" || name.Name == "init" {
			r.roots = append(r.roots, refs...)
		} else {
			r.decls[info.Defs[name]] = refs
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declare(fd.Name, fd)
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare(s.Name, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declare(n, s)
					}
				}
			}
		}
	}
	return pkg, nil
}

// collectIfaces gathers the methods of every interface type declared in
// pkg or in anything it imports, the standard library included.
func (r *reach) collectIfaces(pkg *types.Package) {
	if r.seen[pkg] {
		return
	}
	r.seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				r.ifaces[m.Name()] = append(r.ifaces[m.Name()], m.Type())
			}
		}
	}
	for _, imp := range pkg.Imports() {
		r.collectIfaces(imp)
	}
}

// walk returns every declaration reachable from the roots.
func (r *reach) walk() map[types.Object]bool {
	dynamic := map[*types.TypeName][]types.Object{} // methods an interface call may reach
	for obj := range r.decls {
		if tn := recvType(obj); tn != nil {
			for _, sig := range r.ifaces[obj.Name()] {
				if types.Identical(sig, obj.Type()) { // receivers are ignored
					dynamic[tn] = append(dynamic[tn], obj)
					break
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	for queue := r.roots; len(queue) > 0; {
		obj := queue[0]
		queue = queue[1:]
		refs, ok := r.decls[obj]
		if !ok || reached[obj] {
			continue
		}
		reached[obj] = true
		queue = append(queue, refs...)
		if tn, ok := obj.(*types.TypeName); ok {
			queue = append(queue, dynamic[tn]...)
		}
	}
	return reached
}

// recvType returns the named type a method is declared on, or nil for
// anything but a method.
func recvType(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}
