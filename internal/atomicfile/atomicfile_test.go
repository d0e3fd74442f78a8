package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplace: a successful write replaces the file; a failed one — the
// writer erring after writing part of its output — leaves the previous
// bytes intact and no temporary file behind.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	for _, s := range []string{"first\n", "second\n"} {
		if err := Replace(path, write(s)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != s {
			t.Fatalf("file holds %q (%v), want %q", got, err, s)
		}
	}

	boom := errors.New("boom")
	err := Replace(path, func(w io.Writer) error {
		io.WriteString(w, "par")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second\n" {
		t.Fatalf("after a failed write the file holds %q (%v), want the previous bytes", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the failed write, want only the file", len(entries))
	}

	if err := Replace(filepath.Join(dir, "missing", "out.json"), write("x")); err == nil {
		t.Fatal("Replace into a missing directory succeeded")
	}
}
