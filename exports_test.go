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
	"calib.Decode":                    "the strict reader of the model file powerfleet calibrate writes; the calib and powerfleet tests read it back through it",
}

// deadExport is an exported top-level identifier under internal/ that
// no non-test .go file names.
type deadExport struct {
	pos  token.Position // declaration site, path relative to the root
	name string         // pkg.Name or pkg.Type.Method
	key  string         // what a use marks: dir.Name, or a method's bare name
}

// deadExports walks every non-test .go file under root in lexical
// order, skipping testdata and hidden directories, and returns, in
// file and line order, the exported top-level funcs, methods, types,
// consts and vars declared under root/internal that no such file
// names, minus those in allow. A package-level identifier is matched
// by package: a pkg.Name selector names it through pkg's import path,
// and an unqualified Name names it in its own package's files, so two
// packages that export the same name are told apart. Methods are
// matched by bare name, since the receiver's type is not resolved: the
// scan can miss a dead method that shares a name with a live one, but
// never reports a live identifier. Struct fields are out of scope.
func deadExports(root string, allow map[string]string) ([]deadExport, error) {
	type srcFile struct {
		f   *ast.File
		dir string // package directory relative to root, slash-separated
	}
	fset := token.NewFileSet()
	var files []srcFile
	pkgName := map[string]string{} // package directory → package name
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		files = append(files, srcFile{f, dir})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, err
	}

	// used holds "dir.Name" for package-level names and the bare name
	// for every identifier, which is what methods are matched by.
	used := map[string]bool{}
	var decls []deadExport
	declName := map[*ast.Ident]bool{}
	for _, sf := range files {
		if strings.HasPrefix(sf.dir, "internal/") {
			for _, id := range exportedDecls(sf.f) {
				declName[id.ident] = true
				pos := fset.Position(id.ident.Pos())
				if rel, err := filepath.Rel(root, pos.Filename); err == nil {
					pos.Filename = filepath.ToSlash(rel)
				}
				key := id.ident.Name
				if !strings.Contains(id.qual, ".") {
					key = sf.dir + "." + key
				}
				decls = append(decls, deadExport{pos, sf.f.Name.Name + "." + id.qual, key})
			}
		}
		imports := map[string]string{} // local name → package directory
		for _, is := range sf.f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			_, sub, ok := strings.Cut(path, "/internal/")
			if !ok {
				continue
			}
			dir := "internal/" + sub
			local := pkgName[dir]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = dir
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				used[n.Sel.Name] = true
				return false
			case *ast.Ident:
				if !declName[n] {
					used[n.Name] = true
					used[sf.dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(sf.f, visit)
	}
	var dead []deadExport
	for _, d := range decls {
		if _, ok := allow[d.name]; !ok && !used[d.key] {
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
// allowlisted one. lib and other both export Shared and only other's is
// named outside tests, so only lib's is reported.
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
		"internal/lib/lib.go:26 lib.Shared",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead exports:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
