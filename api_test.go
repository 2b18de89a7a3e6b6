package iochar

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const testOnlyAPIFile = "testdata/test_only_api.txt"

// TestNoTestOnlyAPI fails when something exported under internal/ is named
// by no non-test file of the root module or of benchmark/ other than inside
// a declaration of that name: code only tests reach is traffic nobody sends.
// The match is by bare name, so it under-reports (a called Len keeps every
// Len) and never over-reports. Deliberate exceptions — reference models, fixtures
// and accessors a surviving assertion reads — are listed with a reason in
// testdata/test_only_api.txt as "pkg.Name reason" or "pkg.Type.Method reason".
func TestNoTestOnlyAPI(t *testing.T) {
	type decl struct {
		key, name string
		node      ast.Node
	}
	var decls []decl
	mentions := map[string][]token.Pos{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[id.Name] = append(mentions[id.Name], id.Pos())
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		add := func(id *ast.Ident, prefix string, node ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + prefix + id.Name, id.Name, node})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				prefix := ""
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
						recv = idx.X
					}
					prefix = recv.(*ast.Ident).Name + "."
				}
				add(d.Name, prefix, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "", s)
						}
					}
				}
			}
		}
		return nil
	})
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

	// A mention inside any declaration of the same name does not count, so
	// neither recursion nor one Merge delegating to another keeps itself alive.
	declared := map[string][]ast.Node{}
	for _, d := range decls {
		declared[d.name] = append(declared[d.name], d.node)
	}
	reached := func(name string) bool {
	mention:
		for _, pos := range mentions[name] {
			for _, n := range declared[name] {
				if n.Pos() <= pos && pos < n.End() {
					continue mention
				}
			}
			return true
		}
		return false
	}
	var unreached []string
	for _, d := range decls {
		if _, listed := allowed[d.key]; listed {
			allowed[d.key] = true
			if reached(d.name) {
				t.Errorf("%s lists %s, which non-test code now names: drop the line", testOnlyAPIFile, d.key)
			}
		} else if !reached(d.name) {
			unreached = append(unreached, d.key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s is exported but only tests name it: delete it, unexport it, or list it in %s with a reason", key, testOnlyAPIFile)
	}
	for key, seen := range allowed {
		if !seen {
			t.Errorf("%s lists %s, which is not declared: drop the line", testOnlyAPIFile, key)
		}
	}
}
