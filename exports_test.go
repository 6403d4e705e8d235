package wattio_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers in internal/ that no
// non-test file names but that stay, each with its reason. Keys are
// package-qualified as deadExports reports them.
var exportAllowlist = map[string]string{
	"scenario.Duration.MarshalJSON":   "encoding/json calls it through json.Marshaler",
	"scenario.Duration.UnmarshalJSON": "encoding/json calls it through json.Unmarshaler",
	"detcheck.Assert":                 "detcheck is a package that exists for tests",
}

// deadExport is an exported top-level identifier under internal/ that
// no non-test .go file names.
type deadExport struct {
	pos  token.Position // declaration site, path relative to the root
	name string         // pkg.Name or pkg.Type.Method
}

// deadExports walks every non-test .go file under root in lexical
// order, skipping testdata and hidden directories, and returns, in
// file and line order, the exported top-level funcs, methods, types,
// consts and vars declared under root/internal that no such file
// names, minus those in allow. Matching is by bare name, so an
// identifier counts as used when any file names anything with that
// name: the scan can miss a dead method that shares a name with a live
// one, but never reports a live identifier. Struct fields are out of
// scope.
func deadExports(root string, allow map[string]string) ([]deadExport, error) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	var decls []deadExport
	declName := map[*ast.Ident]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			for _, id := range exportedDecls(f) {
				declName[id.ident] = true
				pos := fset.Position(id.ident.Pos())
				pos.Filename = filepath.ToSlash(rel)
				decls = append(decls, deadExport{pos: pos, name: f.Name.Name + "." + id.qual})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declName[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []deadExport
	for _, d := range decls {
		bare := d.name[strings.LastIndexByte(d.name, '.')+1:]
		if _, ok := allow[d.name]; !ok && !used[bare] {
			dead = append(dead, d)
		}
	}
	return dead, nil
}

// exportedIdent is one exported top-level declaration: its name
// identifier and its name qualified by receiver type for methods.
type exportedIdent struct {
	ident *ast.Ident
	qual  string
}

// exportedDecls lists f's exported top-level funcs, methods, types,
// consts and vars.
func exportedDecls(f *ast.File) []exportedIdent {
	var out []exportedIdent
	add := func(id *ast.Ident, qual string) {
		if id.IsExported() {
			out = append(out, exportedIdent{id, qual})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			qual := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				qual = recvType(d.Recv.List[0].Type) + "." + qual
			}
			add(d.Name, qual)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, n.Name)
					}
				}
			}
		}
	}
	return out
}

// recvType is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// TestNoTestOnlyExports fails on any exported identifier in internal/
// that only tests reach. perfbench/, cmd/, examples/, scenarios/ and
// the root package all count as callers. Delete such an identifier,
// expose it from an export_test.go file, or keep it unexported beside
// the test that needs it.
func TestNoTestOnlyExports(t *testing.T) {
	dead, err := deadExports(".", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s:%d: %s is exported but only tests name it", d.pos.Filename, d.pos.Line, d.name)
	}
}

// TestDeadExportsFixture runs the scanner over testdata/exports: an
// export that only a _test.go file names is reported at its line, one
// that a perfbench/ non-test file names is not, and neither is an
// allowlisted one.
func TestDeadExportsFixture(t *testing.T) {
	allow := map[string]string{"lib.Thing.MarshalJSON": "called through an interface"}
	dead, err := deadExports(filepath.Join("testdata", "exports"), allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name))
	}
	want := []string{
		"internal/lib/lib.go:10 lib.TestOnly",
		"internal/lib/lib.go:20 lib.Thing.TestOnlyMethod",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead exports:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
