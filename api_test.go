package iochar

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

const testOnlyAPIFile = "testdata/test_only_api.txt"

// TestNoTestOnlyAPI fails when something a non-main package exports — a
// function, type, variable, constant, method or interface method — is used
// by no non-test file of the root module or of benchmark/ other than inside
// its own declaration, or when a field of a struct declared there, exported
// or not, is read by none: code only tests reach is traffic nobody sends,
// and a field nothing reads is state nobody needs. Uses are resolved by
// go/types (see apiCensus), so a called A.Len does not keep B.Len alive, a
// method counts as used when an interface reaches it, and a field counts as
// read when one of serializedRoots, the types a run's input is serialized
// as, reaches it. Deliberate exceptions — reference models, fixtures, and
// accessors and counters a surviving assertion reads — are listed with a
// reason in testdata/test_only_api.txt as "pkg.Name reason" or
// "pkg.Type.Member reason".
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
	t.Run("a field counts when it is read", func(t *testing.T) {
		// hits is only written, through ++ and an index expression too;
		// misses is read only inside a method of its own struct; a
		// composite-literal key writes limit, it does not read it.
		got := fixtureCensus(t, map[string]string{
			"fixture/internal/x": `package x
type Counter struct{ hits, misses int; seen []bool; limit int }
func (c *Counter) Miss() { c.misses++; c.hits = c.misses }
func New() *Counter { c := &Counter{limit: 3, seen: make([]bool, 1)}; c.seen[0] = true; c.hits++; return c }`,
			"fixture/cmd/tool": `package main
import "fixture/internal/x"
func main() { x.New().Miss() }`,
		})
		if want := []string{"x.Counter.hits", "x.Counter.limit", "x.Counter.seen"}; !slices.Equal(got, want) {
			t.Errorf("unreached = %v, want %v", got, want)
		}
	})
	t.Run("a serialized type reaches its fields", func(t *testing.T) {
		// Report is a root: the encoder reads its exported fields and,
		// through a slice of pointers, Inner's. It skips unexported and
		// the json:"-" Skip, and Other is out of its reach.
		got := fixtureCensus(t, map[string]string{
			"fixture/internal/x": `package x
type Report struct { Rows []*Inner; unexported int; Skip int ` + "`json:\"-\"`" + ` }
type Inner struct{ N int }
type Other struct{ M int }
func Make() (Report, Other) { return Report{Rows: nil, unexported: 1, Skip: 2}, Other{M: 1} }`,
			"fixture/cmd/tool": `package main
import "fixture/internal/x"
func main() { _, _ = x.Make() }`,
		}, "x.Report")
		if want := []string{"x.Other.M", "x.Report.Skip", "x.Report.unexported"}; !slices.Equal(got, want) {
			t.Errorf("unreached = %v, want %v", got, want)
		}
	})
	t.Run("a cached output is not a reader", func(t *testing.T) {
		// Key is an input root; Report is stored the same way, but as
		// output, so only what code reads of it counts: Used, not Unused.
		got := fixtureCensus(t, map[string]string{
			"fixture/internal/x": `package x
import "encoding/json"
type Key struct{ Seed int }
type Report struct{ Used, Unused int }
func Store(k Key, r Report) ([]byte, []byte) { a, _ := json.Marshal(k); b, _ := json.Marshal(r); return a, b }`,
			"fixture/cmd/tool": `package main
import "fixture/internal/x"
func main() { r := x.Report{Used: 1, Unused: 2}; x.Store(x.Key{Seed: 1}, r); println(r.Used) }`,
		}, "x.Key")
		if want := []string{"x.Report.Unused"}; !slices.Equal(got, want) {
			t.Errorf("unreached = %v, want %v", got, want)
		}
		if slices.Contains(serializedRoots, "core.RunReport") {
			t.Error("serializedRoots lists core.RunReport, the run cache's output")
		}
	})
	t.Run("every importable package is censused", func(t *testing.T) {
		// lib is neither internal nor main, so an alias layer at the root
		// is judged like internal/: Unused is reported. A main package
		// cannot be imported, so its unused Helper is not.
		got := fixtureCensus(t, map[string]string{
			"fixture/lib": `package lib
func Used() {}
func Unused() {}`,
			"fixture/cmd/tool": `package main
import "fixture/lib"
func Helper() {}
func main() { lib.Used() }`,
		})
		if want := []string{"lib.Unused"}; !slices.Equal(got, want) {
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
		// As the compiler does, take only the files this platform builds:
		// internal/datagen declares its kernel once per architecture.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
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
	declared, reached, err := apiCensus(fset, files, serializedRoots)
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
			t.Errorf("%s is reached only by tests (an export nothing uses or a field nothing reads): delete it, unexport it, or list it in %s with a reason", key, testOnlyAPIFile)
		}
	}
	for key, seen := range allowed {
		if !seen {
			t.Errorf("%s lists %s, which is not declared: drop the line", testOnlyAPIFile, key)
		}
	}
}

// serializedRoots are the types a run's input is serialized as, as
// "pkg.Type": the encoder reads every field it reaches, so no identifier has
// to. A type serialized as output is no root: the run cache stores every
// RunReport field, and storing a value nothing reads back keeps nobody's
// counter alive.
var serializedRoots = []string{
	"core.runKey",    // hashed into the run cache's key
	"chaos.Schedule", // written as schedule files
}

// fixtureCensus runs apiCensus over in-memory packages with the given
// serialized roots and returns the unreached keys, sorted.
func fixtureCensus(t *testing.T, src map[string]string, roots ...string) []string {
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
	declared, reached, err := apiCensus(fset, files, roots)
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
// GOROOT's source) and returns the exported declarations and the struct
// fields of every package but a main one, sorted, as
// "pkg.Name", "pkg.Type.Method" or "pkg.Type.Field", and which of them are
// reached. A declaration is reached when an identifier anywhere in files
// outside the declaration itself resolves to it, or — a method — when its
// receiver type implements an interface that has it and that is either the
// standard library's (which calls through it out of sight) or one of files'
// own whose method is itself used. A field is reached when it is read (see
// fieldWrites), or when encoding/json would read it on its way from one of
// roots ("pkg.Type" as the keys are).
func apiCensus(fset *token.FileSet, files map[string][]*ast.File, roots []string) (declared []string, reached map[string]bool, err error) {
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
	writes := fieldWrites(c.info, files)
	read := map[*types.Var]bool{}
	for id, obj := range c.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
	}

	reached = map[string]bool{}
	var fields []field
	for pkg, fs := range files {
		if c.pkgs[pkg].Name() == "main" {
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
							if slices.Contains(roots, path.Base(pkg)+"."+s.Name.Name) {
								serialized(c.info.Defs[s.Name].Type(), read, map[types.Type]bool{})
							}
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
			// Every named struct's named fields, a function's own types
			// too; an embedded field is a use of its type.
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.TypeSpec); ok {
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								fields = append(fields, field{path.Base(pkg) + "." + s.Name.Name + "." + id.Name, c.info.Defs[id].(*types.Var)})
							}
						}
					}
				}
				return true
			})
		}
	}
	// Fields are judged once every root has been walked.
	for _, f := range fields {
		declared = append(declared, f.key)
		reached[f.key] = read[f.v]
	}
	sort.Strings(declared)
	return declared, reached, nil
}

type field struct {
	key string
	v   *types.Var
}

// fieldWrites returns the identifiers in files that name a field only to
// write it: an assignment or ++/-- target, also through index expressions
// (x.f[i] = v writes f), and a composite literal's key. Any other use of a
// field reads it.
func fieldWrites(info *types.Info, files map[string][]*ast.File) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				writes[x.Sel] = true
				return
			default:
				return
			}
		}
	}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						target(e)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							writes[id] = true
						}
					}
				}
				return true
			})
		}
	}
	return writes
}

// serialized marks in read every field encoding/json reads of a t value:
// the exported, untagged-out fields of the structs t reaches, and what
// they reach in turn.
func serialized(t types.Type, read map[*types.Var]bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		serialized(t.Underlying(), read, seen)
	case *types.Pointer:
		serialized(t.Elem(), read, seen)
	case *types.Slice:
		serialized(t.Elem(), read, seen)
	case *types.Array:
		serialized(t.Elem(), read, seen)
	case *types.Map:
		serialized(t.Key(), read, seen)
		serialized(t.Elem(), read, seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); (f.Exported() || f.Embedded()) && reflect.StructTag(t.Tag(i)).Get("json") != "-" {
				read[f.Origin()] = true
				serialized(f.Type(), read, seen)
			}
		}
	}
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
