package main

import (
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
