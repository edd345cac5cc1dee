package orwlplace

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowList names the exported identifiers under internal/ that no
// non-test file outside their own package references, one per line as
// "pkg.Name" or "pkg.Type.Method" followed by "# reason", where pkg is the
// package's directory below internal/.
const surfaceAllowList = "testdata/surface_allowlist.txt"

// TestSurfaceAudit holds the exported surface of every package under
// internal/ to what the module uses. Every exported top-level name, and
// every exported method of an exported type, must be referenced by some
// non-test file outside its package — benchmark/ counted — or appear on
// the checked-in allow-list with a reason. The list is exact: a listed
// name that gains a caller or disappears must leave it, so the surface
// only grows by an explicit edit. Methods are matched grep-grade, by
// selector name alone.
func TestSurfaceAudit(t *testing.T) {
	exported, names, selectors := scanModule(t)
	if len(exported) == 0 {
		t.Fatal("no exported names found under internal/")
	}
	var unused []string
	for _, e := range exported {
		pkg, name := splitEntry(e)
		_, method, isMethod := strings.Cut(name, ".")
		used := names[e]
		if isMethod {
			used = slices.ContainsFunc(selectors[method], func(dir string) bool { return dir != "internal/"+pkg })
		}
		if !used {
			unused = append(unused, e)
		}
	}
	allowed := readAllowList(t)
	for _, e := range unused {
		if !slices.Contains(allowed, e) {
			pkg, _ := splitEntry(e)
			t.Errorf("%s has no caller outside internal/%s: wire it, move it into a _test.go file, delete it, or add it to %s with a reason", e, pkg, surfaceAllowList)
		}
	}
	for _, e := range allowed {
		switch {
		case !slices.Contains(exported, e):
			t.Errorf("%s is on %s but is not exported under internal/: remove the line", e, surfaceAllowList)
		case !slices.Contains(unused, e):
			t.Errorf("%s is on %s but has a caller outside its package now: remove the line", e, surfaceAllowList)
		}
	}
	if t.Failed() {
		t.Logf("unreferenced surface today:\n%s", strings.Join(unused, "\n"))
	}
}

// splitEntry splits "apps/livermore.Grid.Step" into the package directory
// "apps/livermore" and the name "Grid.Step".
func splitEntry(e string) (pkg, name string) {
	slash := strings.LastIndex(e, "/") + 1
	dot := strings.Index(e[slash:], ".")
	if dot < 0 {
		return e, ""
	}
	return e[:slash+dot], e[slash+dot+1:]
}

// scanModule parses every non-test Go file of the module, benchmark/
// included. It returns, sorted, the exported surface of the packages
// under internal/ as "pkg.Name" and "pkg.Type.Method"; the set of
// "pkg.Name" selected through an import of pkg; and, per selector name,
// the directories (slash-separated, relative to the module root) of the
// files that select it.
func scanModule(t *testing.T) (exported []string, names map[string]bool, selectors map[string][]string) {
	t.Helper()
	const module = "orwlplace/internal/"
	names, selectors = map[string]bool{}, map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			exported = append(exported, exportedDecls(pkg, f)...)
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			pkg, ok := strings.CutPrefix(ip, module)
			if !ok {
				continue
			}
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !slices.Contains(selectors[sel.Sel.Name], dir) {
				selectors[sel.Sel.Name] = append(selectors[sel.Sel.Name], dir)
			}
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				names[imports[x.Name]+"."+sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(exported)
	return exported, names, selectors
}

// exportedDecls lists a file's exported top-level names and the exported
// methods of its exported types, prefixed with pkg.
func exportedDecls(pkg string, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, pkg+"."+d.Name.Name)
			} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
				out = append(out, pkg+"."+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, pkg+"."+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, pkg+"."+n.Name)
						}
					}
				}
			}
		}
	}
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
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// readAllowList reads the entries of the allow-list, failing on an entry
// without a reason or listed twice.
func readAllowList(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(surfaceAllowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		entry, reason, _ := strings.Cut(sc.Text(), "#")
		entry = strings.TrimSpace(entry)
		switch {
		case entry == "":
			continue
		case strings.TrimSpace(reason) == "":
			t.Errorf("%s:%d: %s has no reason: append \"# why it stays\"", surfaceAllowList, n, entry)
		case slices.Contains(out, entry):
			t.Errorf("%s:%d: %s is listed twice", surfaceAllowList, n, entry)
		}
		out = append(out, entry)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
