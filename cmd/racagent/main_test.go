package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rac-project/rac"
)

func TestParseMix(t *testing.T) {
	for _, want := range []rac.Mix{rac.Browsing, rac.Shopping, rac.Ordering} {
		got, err := parseMix(want.String())
		if err != nil || got != want {
			t.Errorf("parseMix(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := parseMix("nope"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestParseLevel(t *testing.T) {
	for _, want := range []rac.Level{rac.Level1, rac.Level2, rac.Level3} {
		got, err := parseLevel(want.Name)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v", want.Name, got, err)
		}
	}
	if _, err := parseLevel("Level-9"); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-mix", "bogus", "-iters", "1"}); err == nil {
		t.Error("bogus mix accepted")
	}
	if err := run([]string{"-agent", "bogus", "-iters", "1"}); err == nil {
		t.Error("bogus agent accepted")
	}
	if err := run([]string{"-level", "bogus", "-iters", "1"}); err == nil {
		t.Error("bogus level accepted")
	}
	if err := run([]string{"-agent", "static", "-snapshot", "x.json"}); err == nil {
		t.Error("-snapshot with a baseline agent accepted")
	}
	// The experience queue is gone; the flag must not drift back.
	if err := run([]string{"-expqueue", "2"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-expqueue: %v, want an unknown-flag error", err)
	}
}

// TestSignalFinishesIntervalAndSnapshots interrupts a live run with a real
// SIGTERM: the agent must finish its in-flight interval, exit cleanly, and
// leave a loadable state snapshot behind.
func TestSignalFinishesIntervalAndSnapshots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agent.json")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-iters", "40", "-interval", "150ms", "-clients", "10", "-snapshot", path})
	}()
	// Give the run time to boot the stack and install its signal handler
	// (the bookstore comes up in milliseconds; the first interval is 150ms).
	time.Sleep(700 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop after SIGTERM")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	defer f.Close()
	st, err := rac.LoadAgentState(f)
	if err != nil {
		t.Fatalf("snapshot does not load: %v", err)
	}
	if st.Iteration < 1 {
		t.Fatalf("snapshot at iteration %d, want at least one finished interval", st.Iteration)
	}
}
