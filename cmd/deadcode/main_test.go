package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestUnreferenced runs the lister over a small module: a package-level
// identifier counts as used from another file of its package or through an
// import, a method through a selector outside its file that resolves to it,
// or through an interface its type satisfies, declared in the module or in a
// standard-library package the module imports; uses inside the declaring
// file and in test files do not count, a package-qualified name is no method
// use, another type's method or a field of the same name is no use, and
// nothing outside internal/ is listed.
func TestUnreferenced(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("internal/a/a.go", `package a

type T struct{}

func (T) Called()        {}
func (T) Dispatch()      {}
func (T) Unused()        {}
func (T) Name()          {}
func (T) Field()         {}
func (T) String() string { return "" }

type U struct{ Field int }

func (U) Called()       {}
func (U) Dispatch(int) {}

func Name() {}

func Imported()    {}
func Sibling()     {}
func SelfOnly()    { SelfOnly() }
func TestOnly()    {}

const Answer = 42

var Hidden = Answer
`)
	write("internal/a/b.go", `package a

type iface interface{ Dispatch() }

func use() { Sibling() }
`)
	write("internal/a/a_test.go", `package a

func useInTest() { TestOnly(); T{}.Unused() }
`)
	write("internal/a/testdata/x.go", `package x

import "example.com/m/internal/a"

func f() { a.Hidden = 1 }
`)
	write("internal/d/d.go", `package d

import "example.com/m/internal/a"

func use() { a.Name() }
`)
	write("cmd/c/main.go", `package main

import (
	"fmt"

	alias "example.com/m/internal/a"
)

func Exported() {}

func main() {
	alias.Imported()
	var t alias.T
	t.Called()
	var u alias.U
	u.Field++
	fmt.Println(t, u)
}
`)
	mod, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	if mod.path != "example.com/m" {
		t.Fatalf("module %q", mod.path)
	}
	dead, err := unreferenced(mod)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.String())
	}
	want := []string{
		"internal/a.Answer", // used only in its own file
		"internal/a.Hidden", // used only under testdata
		"internal/a.SelfOnly",
		"internal/a.T.Field",  // u.Field selects U's field
		"internal/a.T.Name",   // a.Name selects the package's func, not the method
		"internal/a.T.Unused", // used only by a test
		"internal/a.TestOnly",
		"internal/a.U.Called",   // t.Called() resolves to T's method
		"internal/a.U.Dispatch", // U does not satisfy iface
	}
	if !slices.Equal(got, want) {
		t.Fatalf("unreferenced %v, want %v", got, want)
	}
}
