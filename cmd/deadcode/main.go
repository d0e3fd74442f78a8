// Command deadcode lists the exported identifiers of the module's internal/
// packages that no non-test file references outside the file declaring them,
// and checks the list against a checked-in allowlist: production code should
// be what production runs, and code that only tests call is kept only where
// the allowlist says so.
//
// It reads the source with go/parser alone, so references are matched by
// name: a package-level identifier X of package p counts as referenced by a
// bare X in another non-test file of p, or by n.X in a non-test file that
// imports p as n; a method M counts as referenced by any selector x.M outside
// its file where x is not an imported package's name, or by an interface
// method named M anywhere in the module (it may be called through the
// interface). Test files (_test.go) and testdata directories are neither
// declarations nor references.
//
// Matching methods by name under-counts them: a selector of a struct field,
// or of another type's method, with the same name counts as a use, so the
// list misses a method that shares its name with a field selected anywhere.
//
// It exits non-zero, naming each, when an unreferenced identifier is missing
// from the allowlist (cmd/deadcode/allowlist.txt, one identifier per line, as
// pkgdir.Name or pkgdir.Type.Method) or when an allowlisted one is referenced
// again or gone — the allowlist may only shrink. Run it from the module root:
//
//	go run ./cmd/deadcode
package main

import (
	"bufio"
	"fmt"
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
)

// decl is an exported identifier: its package's directory (relative to the
// module root, slash-separated), its name (Type.Method for a method) and the
// file declaring it.
type decl struct {
	dir, name, file string
	method          string // the method's name; "" for a package-level identifier
}

func (d decl) String() string { return d.dir + "." + d.name }

// file is a parsed non-test Go file and the package directory holding it.
type file struct {
	path, dir string
	ast       *ast.File
}

// allowlist is the checked-in list, relative to the module root.
const allowlist = "cmd/deadcode/allowlist.txt"

func main() {
	module, files, err := load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	dead := unreferenced(module, files)
	allowed, err := readAllowlist(allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	found := make(map[string]bool, len(dead))
	failed := false
	for _, d := range dead {
		found[d.String()] = true
		if !allowed[d.String()] {
			fmt.Printf("%s: %s is referenced by no non-test file outside its own; delete it, move it to a test file, or use it\n",
				d.file, d)
			failed = true
		}
	}
	for name := range allowed {
		if !found[name] {
			fmt.Printf("%s: %s is referenced or gone; remove it from the allowlist\n", allowlist, name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("deadcode: %d unreferenced exported identifiers, all allowlisted\n", len(dead))
}

// load parses every non-test Go file under root outside testdata and hidden
// directories, and returns them, named relative to root, with the module path
// from go.mod.
func load(root string) (string, []file, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return "", nil, fmt.Errorf("go.mod names no module")
	}
	fset := token.NewFileSet()
	var files []file
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files = append(files, file{path: rel, dir: path.Dir(rel), ast: f})
		return nil
	})
	return module, files, err
}

// unreferenced returns the exported identifiers declared under internal/
// that no other non-test file references, sorted.
func unreferenced(module string, files []file) []decl {
	var decls []decl
	// bare[dir][name] lists the files of package dir using name unqualified;
	// qualified[dir][name] those using it through an import of dir; and
	// selected[name] those selecting name from anything.
	bare := map[string]map[string][]string{}
	qualified := map[string]map[string][]string{}
	selected := map[string][]string{}
	ifaceMethods := map[string]bool{}
	add := func(m map[string]map[string][]string, dir, name, path string) {
		if m[dir] == nil {
			m[dir] = map[string][]string{}
		}
		m[dir][name] = append(m[dir][name], path)
	}
	for _, f := range files {
		if strings.HasPrefix(f.dir, "internal/") {
			decls = append(decls, exported(f)...)
		}
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.ast.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(ipath, module+"/") {
				continue
			}
			dir := strings.TrimPrefix(ipath, module+"/")
			name := path.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// The selected name is not a bare use; only X is walked. A
				// name selected from an imported package is no method call.
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						add(qualified, dir, n.Sel.Name, f.path)
						return false
					}
				}
				selected[n.Sel.Name] = append(selected[n.Sel.Name], f.path)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				add(bare, f.dir, n.Name, f.path)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}
	elsewhere := func(paths []string, self string) bool {
		return slices.ContainsFunc(paths, func(p string) bool { return p != self })
	}
	var dead []decl
	for _, d := range decls {
		var used bool
		if d.method != "" {
			used = ifaceMethods[d.method] || elsewhere(selected[d.method], d.file)
		} else {
			used = elsewhere(bare[d.dir][d.name], d.file) || elsewhere(qualified[d.dir][d.name], d.file)
		}
		if !used {
			dead = append(dead, d)
		}
	}
	slices.SortFunc(dead, func(a, b decl) int { return strings.Compare(a.String(), b.String()) })
	return dead
}

// exported returns f's exported top-level identifiers and the exported
// methods of its types.
func exported(f file) []decl {
	var out []decl
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, decl{dir: f.dir, name: d.Name.Name, file: f.path})
				continue
			}
			if recv := receiver(d.Recv.List[0].Type); ast.IsExported(recv) {
				out = append(out, decl{dir: f.dir, name: recv + "." + d.Name.Name, file: f.path, method: d.Name.Name})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, decl{dir: f.dir, name: s.Name.Name, file: f.path})
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							out = append(out, decl{dir: f.dir, name: name.Name, file: f.path})
						}
					}
				}
			}
		}
	}
	return out
}

// receiver returns the name of a method's receiver type.
func receiver(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// readAllowlist reads one identifier per line; blank lines and lines
// starting with # are skipped.
func readAllowlist(name string) (map[string]bool, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		allowed[line] = true
	}
	return allowed, sc.Err()
}
