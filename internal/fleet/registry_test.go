package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// saveBytes is p's policy document.
func saveBytes(t *testing.T, p *core.Policy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// publishContext publishes context-1's recipe into a fresh registry and
// returns the fleet and key.
func publishContext(t testing.TB, dir string) (*Fleet, string) {
	t.Helper()
	f, err := New(Options{Seed: 5, RegistryDir: dir, TrainInit: fastTrain()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	key := ContextKey(ctx)
	if _, err := f.registry.Put(key, f.recipe(TenantSpec{}, ctx, key)); err != nil {
		t.Fatal(err)
	}
	return f, key
}

// TestRegistryDigestMismatch: a recipe whose digest is not its retrained
// policy's is a core.ErrPolicyDigest naming both digests, from Get and from
// admission alike.
func TestRegistryDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	f, key := publishContext(t, dir)
	p, err := f.registry.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	real := p.Digest()
	tampered := strings.Repeat("0", len(real))
	data, err := os.ReadFile(f.registry.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.registry.path(key), bytes.Replace(data, []byte(real), []byte(tampered), 1), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewPolicyRegistry(dir, f.Space(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Get(key)
	if !errors.Is(err, core.ErrPolicyDigest) {
		t.Fatalf("Get with a tampered digest: err %v, policy returned %t; want ErrPolicyDigest", err, got != nil)
	}
	if msg := err.Error(); !strings.Contains(msg, real) || !strings.Contains(msg, tampered) {
		t.Errorf("error %q does not name both digests", msg)
	}

	f2, err := New(Options{Seed: 5, RegistryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Admit(TenantSpec{Name: "t", Backend: "analytic", Context: "context-1"}); !errors.Is(err, core.ErrPolicyDigest) {
		t.Fatalf("Admit over a tampered recipe = %v, want ErrPolicyDigest", err)
	}
}

// TestRegistryRefusesUnboundedSchedule: a recipe whose offline schedule
// would sweep practically forever — 2^40 sweeps, threshold 0 — is refused
// by the cold Get that reads it, before any training.
func TestRegistryRefusesUnboundedSchedule(t *testing.T) {
	dir := t.TempDir()
	f, key := publishContext(t, dir)
	data, err := os.ReadFile(f.registry.path(key))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := loadRecipe(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rec.Batch.MaxSweeps, rec.Batch.Theta = 1<<40, 0
	data, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.registry.path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	fresh, err := NewPolicyRegistry(dir, f.Space(), 1, tel)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := fresh.Get(key); err == nil || !strings.Contains(err.Error(), "offline schedule") {
		t.Fatalf("Get of an unbounded recipe: policy returned %t, error %v", p != nil, err)
	}
	if n := tel.Counter("rac_parallel_tasks_total", "Work units dispatched through the parallel pool.", nil).Value(); n != 0 {
		t.Errorf("the refused recipe dispatched %d sampling tasks", n)
	}
}

// TestRegistryColdGetsTrainOnce: concurrent Gets of a key not in memory
// return one policy and train it once (the pool's task count equals one
// training's).
func TestRegistryColdGetsTrainOnce(t *testing.T) {
	dir := t.TempDir()
	f, key := publishContext(t, dir)
	tasks := func(tel *telemetry.Registry) int64 {
		return tel.Counter("rac_parallel_tasks_total", "Work units dispatched through the parallel pool.", nil).Value()
	}

	once := telemetry.NewRegistry()
	probe, err := NewPolicyRegistry(dir, f.Space(), 2, once)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Get(key); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.NewRegistry()
	reg, err := NewPolicyRegistry(dir, f.Space(), 2, tel)
	if err != nil {
		t.Fatal(err)
	}
	const getters = 8
	got := make([]*core.Policy, getters)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := reg.Get(key)
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("Get %d returned %p, Get 0 %p", i, p, got[0])
		}
	}
	if n, want := tasks(tel), tasks(once); n != want || want == 0 {
		t.Fatalf("%d concurrent cold Gets ran %d pool tasks, one training runs %d", getters, n, want)
	}
}

// TestLoadRecipeRejectsTrailingData: a recipe is one document, then EOF.
func TestLoadRecipeRejectsTrailingData(t *testing.T) {
	data := recipeBytes(t)
	if _, err := loadRecipe(bytes.NewReader(data)); err != nil {
		t.Fatalf("valid recipe rejected: %v", err)
	}
	for _, junk := range []string{"{}", "x", `{"mix":"browsing"}`} {
		if _, err := loadRecipe(bytes.NewReader(append(bytes.Clone(data), junk...))); err == nil {
			t.Errorf("recipe followed by %q accepted", junk)
		}
	}
}

// recipeBytes is a published recipe file's contents.
func recipeBytes(t testing.TB) []byte {
	t.Helper()
	f, key := publishContext(t, t.TempDir())
	data, err := os.ReadFile(f.registry.path(key))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzLoadRecipe: loadRecipe never panics, and an accepted recipe encodes
// and reloads to an equal value.
func FuzzLoadRecipe(f *testing.F) {
	data := recipeBytes(f)
	f.Add(data)
	f.Add(append(bytes.Clone(data), `{"mix":"ordering"}`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := loadRecipe(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted recipe does not encode: %v", err)
		}
		again, err := loadRecipe(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded recipe rejected: %v\n%s", err, enc)
		}
		if again != rec {
			t.Fatalf("reloaded %+v, want %+v", again, rec)
		}
	})
}
