// Command deadcode lists the exported identifiers of the module's internal/
// packages that no non-test file references outside the file declaring them,
// and checks the list against a checked-in allowlist: production code should
// be what production runs, and code that only tests call is kept only where
// the allowlist says so.
//
// It type-checks the module's non-test files with go/types, the standard
// library's packages from their source, and resolves every identifier to
// the object it denotes: an identifier counts as referenced by a use in a
// non-test file other than its own that resolves to it, so a method only by
// a selector of its own type (or a type embedding it), never by a field or
// another type's method of the same name. A method also counts as used when
// its type satisfies an interface holding it, declared in the module or in
// any standard-library package the module imports directly or not (it may
// be called through the interface: fmt calls String, encoding/json
// MarshalJSON). Test files (_test.go) and testdata directories are neither
// declarations nor references.
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
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// decl is an exported identifier: its package's directory (relative to the
// module root, slash-separated), its name (Type.Method for a method), the
// file declaring it and the object it declares.
type decl struct {
	dir, name, file string
	obj             types.Object
}

func (d decl) String() string { return d.dir + "." + d.name }

// file is a parsed non-test Go file and the package directory holding it.
type file struct {
	path, dir string
	ast       *ast.File
}

// module is the module's parsed non-test files.
type module struct {
	path  string // from go.mod
	fset  *token.FileSet
	files []file
}

// allowlist is the checked-in list, relative to the module root.
const allowlist = "cmd/deadcode/allowlist.txt"

func main() {
	mod, err := load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	dead, err := unreferenced(mod)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
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
// directories, naming them relative to root, and reads the module path from
// go.mod.
func load(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &module{fset: token.NewFileSet()}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			mod.path = f[1]
		}
	}
	if mod.path == "" {
		return nil, fmt.Errorf("go.mod names no module")
	}
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
		f, err := parser.ParseFile(mod.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		mod.files = append(mod.files, file{path: rel, dir: path.Dir(rel), ast: f})
		return nil
	})
	return mod, err
}

// checker type-checks the module's packages on demand, as the importer of
// one another; other import paths are the standard library's, checked from
// source.
type checker struct {
	mod  *module
	dirs map[string][]*ast.File    // import path -> the package's files
	pkgs map[string]*types.Package // checked, or nil while in progress
	info *types.Info
	std  types.Importer
}

func (c *checker) Import(ipath string) (*types.Package, error) {
	files, ok := c.dirs[ipath]
	if !ok {
		return c.std.Import(ipath)
	}
	if pkg, done := c.pkgs[ipath]; done {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", ipath)
		}
		return pkg, nil
	}
	c.pkgs[ipath] = nil
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(ipath, c.mod.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[ipath] = pkg
	return pkg, nil
}

// unreferenced returns the exported identifiers declared under internal/
// that no other non-test file references, sorted.
func unreferenced(mod *module) ([]decl, error) {
	c := &checker{
		mod:  mod,
		dirs: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		std:  importer.ForCompiler(mod.fset, "source", nil),
	}
	importPath := func(dir string) string {
		if dir == "." {
			return mod.path
		}
		return mod.path + "/" + dir
	}
	for _, f := range mod.files {
		c.dirs[importPath(f.dir)] = append(c.dirs[importPath(f.dir)], f.ast)
	}
	for ipath := range c.dirs {
		if _, err := c.Import(ipath); err != nil {
			return nil, err
		}
	}

	// usedIn[obj] lists the files using obj; a method's uses are filed under
	// its generic origin.
	usedIn := map[types.Object][]string{}
	var decls []decl
	var ifaces []*types.Interface
	for _, f := range mod.files {
		if strings.HasPrefix(f.dir, "internal/") {
			decls = append(decls, exported(f, c.info)...)
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := c.info.Uses[n]; obj != nil {
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					usedIn[obj] = append(usedIn[obj], f.path)
				}
			case *ast.InterfaceType:
				if iface, ok := c.info.Types[n].Type.(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
			return true
		})
	}
	// Every interface the module's packages declare or import, transitively.
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if !seen[pkg] {
			seen[pkg] = true
			ifaces = appendInterfaces(ifaces, pkg)
			for _, dep := range pkg.Imports() {
				walk(dep)
			}
		}
	}
	for _, pkg := range c.pkgs {
		walk(pkg)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	var dead []decl
	for _, d := range decls {
		if slices.ContainsFunc(usedIn[d.obj], func(p string) bool { return p != d.file }) {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfies(fn, ifaces) {
			continue
		}
		dead = append(dead, d)
	}
	slices.SortFunc(dead, func(a, b decl) int { return strings.Compare(a.String(), b.String()) })
	return dead, nil
}

// appendInterfaces appends the interfaces pkg declares at package level.
func appendInterfaces(ifaces []*types.Interface, pkg *types.Package) []*types.Interface {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			}
		}
	}
	return ifaces
}

// satisfies reports whether the method fn is a method of some interface of
// ifaces that its receiver type, or a pointer to it, implements.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range ifaces {
		m, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name())
		if m != nil && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
			return true
		}
	}
	return false
}

// exported returns f's exported top-level identifiers and the exported
// methods of its exported types, with the objects they declare.
func exported(f file, info *types.Info) []decl {
	var out []decl
	add := func(id *ast.Ident, name string) {
		out = append(out, decl{dir: f.dir, name: name, file: f.path, obj: info.Defs[id]})
	}
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(d.Name, d.Name.Name)
				continue
			}
			if recv := receiver(d.Recv.List[0].Type); ast.IsExported(recv) {
				add(d.Name, recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							add(name, name.Name)
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
