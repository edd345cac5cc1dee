package placement

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowList names the exported identifiers of this package that no
// non-test file outside it references, one per line ("Name" or
// "Type.Method"; '#' starts a comment).
const surfaceAllowList = "testdata/surface_allowlist.txt"

// TestSurfaceAudit holds the package's exported surface to what the
// module uses. Every exported top-level name, and every exported method
// of an exported type, must be referenced by some non-test file outside
// the package — benchmark/ counted — or appear on the checked-in
// allow-list. The list is exact: a listed name that gains a caller or
// disappears must leave it, so the surface only grows by an explicit
// edit. Methods are matched grep-grade, by selector name alone.
func TestSurfaceAudit(t *testing.T) {
	exported := exportedSurface(t)
	names, selectors := externalReferences(t, filepath.Join("..", ".."))
	var unused []string
	for _, e := range exported {
		typ, method, isMethod := strings.Cut(e, ".")
		if isMethod && !selectors[method] || !isMethod && !names[typ] {
			unused = append(unused, e)
		}
	}
	allowed := readAllowList(t)
	for _, e := range unused {
		if !slices.Contains(allowed, e) {
			t.Errorf("%s has no caller outside internal/placement: wire it, move it into a _test.go file, delete it, or add it to %s", e, surfaceAllowList)
		}
	}
	for _, e := range allowed {
		switch {
		case !slices.Contains(exported, e):
			t.Errorf("%s is on %s but is not exported here: remove the line", e, surfaceAllowList)
		case !slices.Contains(unused, e):
			t.Errorf("%s is on %s but has a caller outside the package now: remove the line", e, surfaceAllowList)
		}
	}
	if t.Failed() {
		t.Logf("unreferenced surface today:\n%s", strings.Join(unused, "\n"))
	}
}

// exportedSurface lists, sorted, the exported top-level names of the
// package's non-test files and the exported methods of its exported
// types as "Type.Method".
func exportedSurface(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, d.Name.Name)
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					out = append(out, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// receiverType names a method's receiver type: T for T, *T and T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// externalReferences walks every non-test Go file under root outside
// this package and collects the names selected from an import of it
// (placement.X) and, for methods, every selector name at all.
func externalReferences(t *testing.T, root string) (names, selectors map[string]bool) {
	t.Helper()
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	names, selectors = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, err := filepath.Abs(path)
			if err != nil {
				return err
			}
			if abs == self || d.Name() == "testdata" || path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "orwlplace/internal/placement" {
				local = "placement"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selectors[sel.Sel.Name] = true
				if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
					names[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names, selectors
}

func readAllowList(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(surfaceAllowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
