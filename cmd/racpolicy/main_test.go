package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestNoCacheFlagIsGone: the memo switch was deleted (its two positions
// printed the same bytes); the flag must not drift back.
func TestNoCacheFlagIsGone(t *testing.T) {
	if err := run([]string{"-nocache"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-nocache: %v, want an unknown-flag error", err)
	}
}

// TestPolicyBytesPinned pins the policy files racpolicy writes, so a change
// meant to move nothing observable is checked by the suite, not by hand. The
// hashes were measured at commit 5efce66; a change that moves them on purpose
// re-pins them once. amd64 only: other architectures fuse multiply-adds.
func TestPolicyBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("policy bytes are pinned for amd64 floating point")
	}
	for _, tt := range []struct {
		name, want string
		args       []string
	}{
		{"context-1", "32f7cdcb13fa97b2caa58c106d5aa1f1eb5458889168bfe1b29eafbf182e7a41", nil},
		{"context-3", "d5c1ffcd3b8c60391528f700cb4f05fd2b9e9cafa0e9938b5e43ae72be87b3e5", nil},
		{"context-1", "ff03590a086e16eeb34c5fd5ddf392514c60dab4a2d1ffd6d4fac9dd378a3851",
			[]string{"-backend", "sim", "-coarse", "2", "-seed", "1"}},
	} {
		out := filepath.Join(t.TempDir(), "policy.json")
		if err := run(append([]string{"-train", tt.name, "-o", out}, tt.args...)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tt.want {
			t.Errorf("racpolicy -train %s %v: SHA-256 %s, want %s", tt.name, tt.args, got, tt.want)
		}
	}
}
