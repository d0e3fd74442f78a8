package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/bench"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/fleet"
	"github.com/rac-project/rac/internal/system"
)

// runOutput runs racpolicy with args and returns what it printed.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	printed, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// offlineSolveLine returns the "offline solve:" line of racpolicy's output.
func offlineSolveLine(t *testing.T, printed string) string {
	t.Helper()
	for _, line := range strings.Split(printed, "\n") {
		if strings.HasPrefix(line, "offline solve:") {
			return line
		}
	}
	t.Fatalf("no offline solve line in:\n%s", printed)
	return ""
}

// TestInspectPrintsDigest: -inspect of a -train output prints the digest of
// the policy the same training computes in process, and the offline solve
// line -train printed: a loaded policy solves its table again.
func TestInspectPrintsDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.json")
	trained := runOutput(t, "-train", "context-2", "-coarse", "3", "-o", path)
	inspected := runOutput(t, "-inspect", path)

	space := config.Default()
	ctx, err := system.ContextByName("context-2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LearnPolicyStream(ctx.Name, space, nil, core.InitOptions{
		CoarseLevels: 3, Seed: 1, BatchSampler: system.AnalyticSampler(space, ctx, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "digest:   " + p.Digest() + "\n"; !strings.Contains(inspected, want) {
		t.Errorf("-inspect printed\n%s\nwithout %q", inspected, want)
	}
	if got, want := offlineSolveLine(t, inspected), offlineSolveLine(t, trained); got != want {
		t.Errorf("-inspect prints %q, -train printed %q", got, want)
	}
}

// TestNoCacheFlagIsGone: the memo switch was deleted (its two positions
// printed the same bytes); the flag must not drift back.
func TestNoCacheFlagIsGone(t *testing.T) {
	if err := run([]string{"-nocache"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-nocache: %v, want an unknown-flag error", err)
	}
}

// TestPolicyBytesPinned pins the policy files racpolicy writes, so a change
// meant to move nothing observable is checked by the suite, not by hand. The
// hashes were re-pinned when offline training became a deterministic solve
// (mdp.Solve) and two-level fits stopped fitting curvature, and when a policy
// file came to hold its surface, schedule and digest in place of its Q-table
// rows (the digests did not move); a change that moves them on purpose
// re-pins them once. amd64 only: other architectures
// fuse multiply-adds.
func TestPolicyBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("policy bytes are pinned for amd64 floating point")
	}
	for _, tt := range []struct {
		name, want string
		args       []string
	}{
		{"context-1", "a56df7664ab9807fa25775ad7154765f8c69d2a9d19a63ec1a2c71bb010f61c6", nil},
		{"context-3", "2b0c988b02063c58a0585939da1d063a4a28b8f5d680a2142e7af4a7a3b3ffd6", nil},
		{"context-1", "927ca1e0ddaa35b18371408c25ab74eeaebf73c37eb216bcb6ae5039c723bfa4",
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

// TestTrainersAgree trains context-1 the three ways the tree does — a fleet
// registry with no schedule override, the figure harness at full fidelity on
// the analytic surface, and racpolicy -train — and requires one digest. Each
// builds its own recipe (their seeds differ, and the analytic sweep draws
// nothing), so the test holds them to one description of the training.
func TestTrainersAgree(t *testing.T) {
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := fleet.New(fleet.Options{Seed: 3, RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	if _, err := f.Admit(fleet.TenantSpec{Name: "t", Backend: "analytic", Context: ctx.Name, TrainPolicy: true}); err != nil {
		t.Fatal(err)
	}
	reg, err := fleet.NewPolicyRegistry(dir, f.Space(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromFleet, err := reg.Get(fleet.ContextKey(ctx))
	if err != nil || fromFleet == nil {
		t.Fatalf("registry Get after a training admission: %v, %v", fromFleet, err)
	}

	fromHarness, err := bench.New(bench.Options{Seed: 9}).Policy(ctx)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "policy.json")
	runOutput(t, "-train", ctx.Name, "-o", path)
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	fromCLI, err := core.LoadPolicy(file, config.Default())
	if err != nil {
		t.Fatal(err)
	}

	digests := []string{fromFleet.Digest(), fromHarness.Digest(), fromCLI.Digest()}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Fatalf("context-1 digests: registry %s, harness %s, racpolicy %s", digests[0], digests[1], digests[2])
	}
	const pinned = "a8746628685418e112fc01187421f6064364c645aa1c801a3df8360f5d563046"
	if runtime.GOARCH == "amd64" && digests[0] != pinned {
		t.Errorf("context-1 digest %s, want %s", digests[0], pinned)
	}
}
