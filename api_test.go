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
	files, err := parseTree(fset, false)
	if err != nil {
		t.Fatal(err)
	}
	declared, reached, err := apiCensus(fset, files, serializedRoots)
	if err != nil {
		t.Fatal(err)
	}

	allowed, _ := readExceptions(t)
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

// TestNoTestOnlyKnob fails when an exported field of a struct declared under
// internal/ is written by a test while non-test code writes it nowhere, or
// only ever the same constant: a setting no program turns is a constant, and
// each one a test turns doubles a configuration space no run explores. A
// write is what TestNoTestOnlyAPI counts as one (see fieldWrites); a
// composite literal or assignment whose value is not a constant expression
// turns the field. Deliberate exceptions are listed in
// testdata/test_only_api.txt as "knob pkg.Type.Field reason".
func TestNoTestOnlyKnob(t *testing.T) {
	t.Run("finds what only tests turn", func(t *testing.T) {
		// Fixed is written once, as a constant; Test only by the test;
		// Twice with two constants, Turned with a variable, and hidden is
		// not exported. Outside is no internal/ struct.
		got := fixtureKnobs(t, map[string]string{
			"fixture/internal/x/x.go": `package x
type Config struct{ Fixed, Test, Twice, Turned, hidden int }
func Default(n int) Config { return Config{Fixed: 8, Twice: 1, Turned: n, hidden: 2} }
func Other() Config { c := Default(1); c.Twice = 2; return c }`,
			"fixture/internal/x/x_test.go": `package x
func cases() []Config { return []Config{{Fixed: 4, Test: 1, Twice: 3, Turned: 5, hidden: 6}} }`,
			"fixture/lib/lib.go": `package lib
type Outside struct{ N int }`,
			"fixture/lib/lib_test.go": `package lib
var _ = Outside{N: 1}`,
		})
		if want := []string{"x.Config.Fixed", "x.Config.Test"}; !slices.Equal(got, want) {
			t.Errorf("knobs = %v, want %v", got, want)
		}
	})
	t.Run("an external test package and an indirect write", func(t *testing.T) {
		// The x_test package writes through an assignment, ++ and an
		// index; Slice's program write stores one element, no value.
		got := fixtureKnobs(t, map[string]string{
			"fixture/internal/x/x.go": `package x
type Config struct{ A, B int; Slice []int }
func Default() Config { c := Config{A: 1, Slice: make([]int, 1)}; c.Slice[0] = 3; return c }`,
			"fixture/internal/x/x_ext_test.go": `package x_test
import "fixture/internal/x"
func mutate() { c := x.Default(); c.A = 2; c.B++; c.Slice[0] = 1 }`,
		})
		if want := []string{"x.Config.A", "x.Config.B"}; !slices.Equal(got, want) {
			t.Errorf("knobs = %v, want %v", got, want)
		}
	})

	fset := token.NewFileSet()
	files, err := parseTree(fset, true)
	if err != nil {
		t.Fatal(err)
	}
	knobs, err := knobCensus(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	_, allowed := readExceptions(t)
	for _, key := range knobs {
		if _, listed := allowed[key]; listed {
			allowed[key] = true
		} else {
			t.Errorf("%s is turned only by tests (no program writes it, or only one constant): make it a constant, or list it in %s as \"knob %s reason\"", key, testOnlyAPIFile, key)
		}
	}
	for key, seen := range allowed {
		if !seen {
			t.Errorf("%s lists knob %s, which a program turns or no test writes: drop the line", testOnlyAPIFile, key)
		}
	}
}

// parseTree parses the module's Go files and benchmark/'s — with tests,
// or without — taking only the files this platform builds, as the compiler
// does (internal/datagen declares its kernel once per architecture). It
// returns them by import path; an external test package (package x_test)
// is keyed by its directory's path plus "_test".
func parseTree(fset *token.FileSet, tests bool) (map[string][]*ast.File, error) {
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || (!tests && strings.HasSuffix(p, "_test.go")) {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("iochar", filepath.ToSlash(filepath.Dir(p)))
		if strings.HasSuffix(f.Name.Name, "_test") {
			pkg += "_test"
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	return files, err
}

// readExceptions reads testdata/test_only_api.txt: the API census's
// exceptions ("key reason") and the knob census's ("knob key reason"), each
// keyed false until a census finds it.
func readExceptions(t *testing.T) (api, knobs map[string]bool) {
	t.Helper()
	lf, err := os.Open(testOnlyAPIFile)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	api, knobs = map[string]bool{}, map[string]bool{}
	for sc := bufio.NewScanner(lf); sc.Scan(); {
		line, into := strings.TrimSpace(sc.Text()), api
		if rest, ok := strings.CutPrefix(line, "knob "); ok {
			line, into = rest, knobs
		}
		key, reason, _ := strings.Cut(line, " ")
		if key == "" || strings.HasPrefix(key, "#") {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", testOnlyAPIFile, key)
		}
		into[key] = false
	}
	return api, knobs
}

// fixtureKnobs runs knobCensus over in-memory files and returns what it
// finds.
func fixtureKnobs(t *testing.T, src map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	knobs, err := knobCensus(fset, parseFixture(t, fset, src))
	if err != nil {
		t.Fatal(err)
	}
	return knobs
}

// parseFixture parses in-memory sources keyed by import path (one file
// each) or by "path/name.go", grouped by package as parseTree groups them.
func parseFixture(t *testing.T, fset *token.FileSet, src map[string]string) map[string][]*ast.File {
	t.Helper()
	files := map[string][]*ast.File{}
	for key, text := range src {
		pkg, name := key, key+"/fixture.go"
		if strings.HasSuffix(key, ".go") {
			pkg, name = path.Dir(key), key
		}
		f, err := parser.ParseFile(fset, name, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			pkg += "_test"
		}
		files[pkg] = append(files[pkg], f)
	}
	return files
}

// knobCensus type-checks files (tests included, see parseTree) and returns,
// sorted as "pkg.Type.Field", the exported fields of the structs that
// non-test files under an internal/ directory declare which a test file
// writes while non-test files write them nowhere or only ever one constant.
func knobCensus(fset *token.FileSet, files map[string][]*ast.File) ([]string, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := typeCheck(fset, files, info); err != nil {
		return nil, err
	}
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }
	names := map[*types.Var]string{}
	for pkg, fs := range files {
		if !strings.Contains(pkg, "/internal/") {
			continue
		}
		for _, f := range fs {
			if isTest(f.Pos()) {
				continue
			}
			structFields(f, func(s *ast.TypeSpec, id *ast.Ident) {
				if id.IsExported() {
					names[info.Defs[id].(*types.Var)] = path.Base(pkg) + "." + s.Name.Name + "." + id.Name
				}
			})
		}
	}
	type tally struct {
		test, turned bool
		values       map[string]bool // the constants non-test code writes
	}
	tallies := map[*types.Var]*tally{}
	for id, val := range fieldWrites(info, files) {
		v := info.Uses[id].(*types.Var).Origin()
		if _, ok := names[v]; !ok {
			continue
		}
		tl := tallies[v]
		if tl == nil {
			tl = &tally{values: map[string]bool{}}
			tallies[v] = tl
		}
		tv := info.Types[val]
		switch {
		case isTest(id.Pos()):
			tl.test = true
		case val != nil && tv.IsNil():
			tl.values["nil"] = true
		case val != nil && tv.Value != nil:
			tl.values[tv.Value.ExactString()] = true
		default:
			tl.turned = true
		}
	}
	var knobs []string
	for v, tl := range tallies {
		if tl.test && !tl.turned && len(tl.values) <= 1 {
			knobs = append(knobs, names[v])
		}
	}
	sort.Strings(knobs)
	return knobs, nil
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
	files := parseFixture(t, fset, src)
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
	c, err := typeCheck(fset, files, &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}})
	if err != nil {
		return nil, nil, err
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
		if _, written := writes[id]; !written && isField(obj) {
			read[obj.(*types.Var).Origin()] = true
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
			structFields(f, func(s *ast.TypeSpec, id *ast.Ident) {
				fields = append(fields, field{path.Base(pkg) + "." + s.Name.Name + "." + id.Name, c.info.Defs[id].(*types.Var)})
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

// structFields calls fn with every named field of every named struct in f,
// a function's own types too; an embedded field is a use of its type, not
// a field.
func structFields(f *ast.File, fn func(s *ast.TypeSpec, id *ast.Ident)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.TypeSpec); ok {
			if st, ok := s.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						fn(s, id)
					}
				}
			}
		}
		return true
	})
}

// fieldWrites returns the identifiers in files that name a field only to
// write it: an assignment or ++/-- target, also through index expressions
// (x.f[i] = v writes f), and a composite literal's key. Any other use of a
// field reads it. Each maps to the expression it stores, or to nil where it
// stores no one expression's value: ++/--, an operator assignment, an
// element through an index, a tuple assignment.
func fieldWrites(info *types.Info, files map[string][]*ast.File) map[*ast.Ident]ast.Expr {
	writes := map[*ast.Ident]ast.Expr{}
	target := func(e, val ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e, val = x.X, nil
			case *ast.SelectorExpr:
				writes[x.Sel] = val
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
					for i, e := range n.Lhs {
						var val ast.Expr
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							val = n.Rhs[i]
						}
						target(e, val)
					}
				case *ast.IncDecStmt:
					target(n.X, nil)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok && isField(info.Uses[id]) {
						writes[id] = n.Value
					}
				}
				return true
			})
		}
	}
	return writes
}

func isField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
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

// typeCheck type-checks every package of files into info (any other import
// is the standard library, type-checked from GOROOT's source).
func typeCheck(fset *token.FileSet, files map[string][]*ast.File, info *types.Info) (*census, error) {
	c := &census{
		fset:  fset,
		files: files,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		info:  info,
	}
	for pkg := range files {
		if _, err := c.Import(pkg); err != nil {
			return nil, err
		}
	}
	if c.errs != nil {
		return nil, fmt.Errorf("type errors: %v", c.errs)
	}
	return c, nil
}

// census is typeCheck's importer: it type-checks each package of files once,
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
