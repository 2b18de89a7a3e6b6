package iochar

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

const testOnlyAPIFile = "testdata/test_only_api.txt"

// TestNoTestOnlyAPI fails when something exported under internal/ — a
// function, type, variable, constant, method or interface method — is used
// by no non-test file of the root module or of benchmark/ other than inside
// its own declaration: code only tests reach is traffic nobody sends. Uses
// are resolved by go/types (see apiCensus), so a called A.Len does not keep
// B.Len alive, and a method counts as used when an interface reaches it.
// Deliberate exceptions — reference models, fixtures and accessors a
// surviving assertion reads — are listed with a reason in
// testdata/test_only_api.txt as "pkg.Name reason" or "pkg.Type.Method reason".
func TestNoTestOnlyAPI(t *testing.T) {
	t.Run("resolves by type", func(t *testing.T) {
		// A.Len is called and B.Len is not: the case a bare-name match
		// cannot see.
		got := fixtureCensus(t, map[string]string{
			"fixture/internal/x": `package x
type A struct{}
func (A) Len() int { return 0 }
type B struct{}
func (B) Len() int { return 0 }`,
			"fixture/cmd/tool": `package main
import "fixture/internal/x"
func main() { _ = x.A{}.Len(); _ = x.B{} }`,
		})
		if want := []string{"x.B.Len"}; !slices.Equal(got, want) {
			t.Errorf("unreached = %v, want %v", got, want)
		}
	})
	t.Run("an interface reaches its implementations", func(t *testing.T) {
		// Shape.Area is called through the interface, which reaches
		// Square.Area; nothing calls Shape.Name, so neither it nor
		// Square.Name is reached. Square.Error and Square.Is are the
		// standard library's unnamed protocols.
		got := fixtureCensus(t, map[string]string{
			"fixture/internal/x": `package x
type Shape interface { Area() int; Name() string }
type Square struct{}
func (Square) Area() int { return 1 }
func (Square) Name() string { return "square" }
func (Square) Error() string { return "" }
func (Square) Is(error) bool { return false }
func (Square) Perimeter() int { return 4 }
func Total(s Shape) int { return s.Area() }`,
			"fixture/cmd/tool": `package main
import "fixture/internal/x"
func main() { _ = x.Total(x.Square{}) }`,
		})
		if want := []string{"x.Shape.Name", "x.Square.Name", "x.Square.Perimeter"}; !slices.Equal(got, want) {
			t.Errorf("unreached = %v, want %v", got, want)
		}
	})

	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("iochar", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared, reached, err := apiCensus(fset, files)
	if err != nil {
		t.Fatal(err)
	}

	allowed := map[string]bool{}
	lf, err := os.Open(testOnlyAPIFile)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	for sc := bufio.NewScanner(lf); sc.Scan(); {
		key, reason, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if key == "" || strings.HasPrefix(key, "#") {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", testOnlyAPIFile, key)
		}
		allowed[key] = false
	}
	for _, key := range declared {
		if _, listed := allowed[key]; listed {
			allowed[key] = true
			if reached[key] {
				t.Errorf("%s lists %s, which non-test code now uses: drop the line", testOnlyAPIFile, key)
			}
		} else if !reached[key] {
			t.Errorf("%s is exported but only tests use it: delete it, unexport it, or list it in %s with a reason", key, testOnlyAPIFile)
		}
	}
	for key, seen := range allowed {
		if !seen {
			t.Errorf("%s lists %s, which is not declared: drop the line", testOnlyAPIFile, key)
		}
	}
}

// fixtureCensus runs apiCensus over in-memory packages and returns the
// unreached keys, sorted.
func fixtureCensus(t *testing.T, src map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for pkg, text := range src {
		f, err := parser.ParseFile(fset, pkg+"/fixture.go", text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[pkg] = []*ast.File{f}
	}
	declared, reached, err := apiCensus(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, key := range declared {
		if !reached[key] {
			unreached = append(unreached, key)
		}
	}
	return unreached
}

// unnamedProtocols are the interfaces the standard library calls through
// that no exported type of it names: error itself, and what the errors
// package asserts for inside function bodies.
const unnamedProtocols = `package protocols
type (
	Error   interface{ error }
	Is      interface{ Is(error) bool }
	As      interface{ As(any) bool }
	Unwrap  interface{ Unwrap() error }
	Unwraps interface{ Unwrap() []error }
)`

// apiCensus type-checks the packages in files (import path → parsed non-test
// files; any other import is the standard library, type-checked from
// GOROOT's source) and returns the exported declarations of every package
// with an internal/ path element, sorted, as "pkg.Name" or
// "pkg.Type.Method", and which of them are reached. A declaration is reached
// when an identifier anywhere in files outside the declaration itself
// resolves to it, or — a method — when its receiver type implements an
// interface that has it and that is either the standard library's (which
// calls through it out of sight) or one of files' own whose method is
// itself used.
func apiCensus(fset *token.FileSet, files map[string][]*ast.File) (declared []string, reached map[string]bool, err error) {
	c := &census{
		fset:  fset,
		files: files,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	for pkg := range files {
		if _, err := c.Import(pkg); err != nil {
			return nil, nil, err
		}
	}
	if c.errs != nil {
		return nil, nil, fmt.Errorf("type errors: %v", c.errs)
	}
	uses := map[types.Object][]token.Pos{}
	for id, obj := range c.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin() // a generic type's method, whatever the instantiation
		case *types.Var:
			obj = o.Origin()
		}
		uses[obj] = append(uses[obj], id.Pos())
	}
	ifaces, err := c.interfaces(uses)
	if err != nil {
		return nil, nil, err
	}

	reached = map[string]bool{}
	for pkg, fs := range files {
		if !strings.Contains(pkg, "/internal/") {
			continue
		}
		add := func(prefix string, id *ast.Ident, node ast.Node, recv types.Type) {
			if !id.IsExported() {
				return
			}
			key := path.Base(pkg) + "." + prefix + id.Name
			declared = append(declared, key)
			for _, pos := range uses[c.info.Defs[id]] {
				// A use inside the declaration itself is recursion.
				if pos < node.Pos() || node.End() <= pos {
					reached[key] = true
				}
			}
			for _, via := range ifaces {
				if recv != nil && !reached[key] && via.methods[id.Name] {
					reached[key] = types.Implements(recv, via.iface) || types.Implements(types.NewPointer(recv), via.iface)
				}
			}
		}
		for _, f := range fs {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add("", d.Name, d, nil)
						continue
					}
					fn := c.info.Defs[d.Name].(*types.Func)
					recv := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					named := recv.(*types.Named)
					if named.TypeParams().Len() > 0 {
						recv = nil // Implements is unspecified for an uninstantiated generic type
					}
					add(named.Obj().Name()+".", d.Name, d, recv)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add("", s.Name, s, nil)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, id := range m.Names {
										add(s.Name.Name+".", id, m, nil)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add("", id, s, nil)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(declared)
	return declared, reached, nil
}

// census is apiCensus's importer: it type-checks each package of files once,
// into one shared Info, so an object has one identity wherever it is used.
type census struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
	errs  []error
}

func (c *census) Import(pkg string) (*types.Package, error) {
	if p, ok := c.pkgs[pkg]; ok {
		return p, nil
	}
	fs, ok := c.files[pkg]
	if !ok {
		return c.std.Import(pkg)
	}
	conf := types.Config{Importer: c, Error: func(err error) { c.errs = append(c.errs, err) }}
	p, _ := conf.Check(pkg, c.fset, fs, c.info)
	c.pkgs[pkg] = p
	return p, nil
}

// reach is an interface and the methods it reaches an implementation by.
type reach struct {
	iface   *types.Interface
	methods map[string]bool
}

// interfaces returns the interfaces a method can be reached through: every
// exported one of the standard-library packages the census imported
// (directly or not) and unnamedProtocols with all their methods, and files'
// own with the methods something uses.
func (c *census) interfaces(uses map[types.Object][]token.Pos) ([]reach, error) {
	f, err := parser.ParseFile(c.fset, "protocols.go", unnamedProtocols, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	protocols, err := new(types.Config).Check("protocols", c.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var out []reach
	seen := map[*types.Package]bool{protocols: true}
	queue := []*types.Package{protocols}
	for _, p := range c.pkgs {
		seen[p] = true
		queue = append(queue, p)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
		_, own := c.files[p.Path()]
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !(own || tn.Exported()) {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if named, _ := tn.Type().(*types.Named); !ok || named == nil || named.TypeParams().Len() > 0 {
				continue
			}
			methods := map[string]bool{}
			for i := 0; i < iface.NumMethods(); i++ {
				if m := iface.Method(i); !own || uses[m] != nil {
					methods[m.Name()] = true
				}
			}
			if len(methods) > 0 {
				out = append(out, reach{iface, methods})
			}
		}
	}
	return out, nil
}
