package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/rac-project/rac/internal/core"
)

// The checkpoint corpus holds, per agent state version
// (testdata/compat/checkpoint/v<N>), what a two-tenant analytic fleet
// (compatCheckpointOptions, Seed 48) built at that version wrote after 5
// rounds, and statuses.json the step records its uninterrupted run produced
// over the next 10 rounds, the same for every version. shop_a warm-starts
// from a trained context-1 policy and its name exercises sanitizeName's
// escape; shop-b runs cold, so every entry no retrain sets reads zero.
// A version's directory is never edited; a new version adds one.
const compatCheckpointRounds = 10

func compatCheckpointSpecs() []TenantSpec {
	return []TenantSpec{
		{Name: "shop_a", Backend: "analytic", Context: "context-1", NoiseSigma: 0.15, TrainPolicy: true},
		{Name: "shop-b", Backend: "analytic", Context: "context-2", NoiseSigma: 0.2, NoWarmStart: true},
	}
}

func compatCheckpointOptions(tb testing.TB, dir string) Options {
	return Options{Seed: 48, RegistryDir: tb.TempDir(), TrainInit: fastTrain(), CheckpointDir: dir, CheckpointEvery: 5}
}

// TestCheckpointCompatCorpus restores every tenant of every version of the
// committed checkpoint corpus and requires the restored fleet's next
// compatCheckpointRounds step records to be the pinned ones; for the current
// version it also requires a checkpoint taken right after the restore to be
// the committed file byte for byte.
func TestCheckpointCompatCorpus(t *testing.T) {
	versions, err := filepath.Glob(filepath.Join("testdata", "compat", "checkpoint", "v*"))
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf("v%d", core.AgentStateVersion)
	if !slices.Contains(versions, filepath.Join("testdata", "compat", "checkpoint", current)) {
		t.Fatalf("AgentStateVersion %d has no corpus entry; add testdata/compat/checkpoint/%s", core.AgentStateVersion, current)
	}
	for _, corpus := range versions {
		t.Run(filepath.Base(corpus), func(t *testing.T) {
			checkCheckpointCorpus(t, corpus, filepath.Base(corpus) == current)
		})
	}
}

// checkCheckpointCorpus restores the fleet of one version's corpus
// directory and checks it as TestCheckpointCompatCorpus says; rewrite asks
// for the byte-for-byte checkpoint.
func checkCheckpointCorpus(t *testing.T, corpus string, rewrite bool) {
	dir := t.TempDir()
	for _, sp := range compatCheckpointSpecs() {
		name := filepath.Join(sanitizeName(sp.Name), "ckpt-0000000005"+checkpointExt)
		data, err := os.ReadFile(filepath.Join(corpus, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sanitizeName(sp.Name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := New(compatCheckpointOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range compatCheckpointSpecs() {
		tn, err := f.Admit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !tn.Status().Restored || tn.Interval() != 5 {
			t.Fatalf("tenant %s restored=%v at interval %d, want restored at 5", sp.Name, tn.Status().Restored, tn.Interval())
		}
		if !rewrite {
			continue
		}
		name := filepath.Join(sanitizeName(sp.Name), "ckpt-0000000005"+checkpointExt)
		want, err := os.ReadFile(filepath.Join(corpus, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CheckpointNow(sp.Name); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("tenant %s: the restored state checkpoints to other bytes than the committed file", sp.Name)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the corpus's step records are pinned for amd64 floating point")
	}
	data, err := os.ReadFile(filepath.Join(corpus, "statuses.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]stepRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string][]stepRecord{}
	runRecorded(t, f, compatCheckpointRounds, got)
	for _, sp := range compatCheckpointSpecs() {
		g, w := got[sp.Name], want[sp.Name]
		if len(g) != len(w) || len(w) != compatCheckpointRounds {
			t.Fatalf("tenant %s: %d step records, want %d (%d pinned)", sp.Name, len(g), compatCheckpointRounds, len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("tenant %s step %d: %+v, pinned %+v", sp.Name, i, g[i], w[i])
			}
		}
	}
}
