// Package atomicfile replaces files whole. New contents go to a temporary
// file in the target's directory and are renamed over the target only once
// they are completely written, so a reader finds the old file or the new
// one, never a part, and a failed write leaves the old file as it was.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// WriteTemp creates a temporary file in dir named by pattern (as
// os.CreateTemp takes it), fills it through write and closes it, returning
// its name. On any error the file is removed.
func WriteTemp(dir, pattern string, write func(io.Writer) error) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	name := f.Name()
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(name)
		return "", err
	}
	return name, nil
}

// Replace writes path's new contents through write into a temporary file
// beside it, then renames that over path.
func Replace(path string, write func(io.Writer) error) error {
	tmp, err := WriteTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp", write)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
