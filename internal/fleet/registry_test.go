package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/config"
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

// coldGetEdited publishes context-1's recipe, rewrites the file through edit,
// and returns the sampling tasks a cold Get of it dispatched and its error.
func coldGetEdited(t *testing.T, edit func(*recipeFile)) (int64, error) {
	t.Helper()
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
	edit(&rec)
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
	p, err := fresh.Get(key)
	if p != nil {
		t.Errorf("the edited recipe returned a policy (error %v)", err)
	}
	return tel.Counter("rac_parallel_tasks_total", "Work units dispatched through the parallel pool.", nil).Value(), err
}

// TestRegistryRefusesUnboundedSchedule: a recipe whose offline schedule
// would sweep practically forever — 2^40 sweeps, threshold 0 — is refused
// by the cold Get that reads it, before any training.
func TestRegistryRefusesUnboundedSchedule(t *testing.T) {
	tasks, err := coldGetEdited(t, func(rec *recipeFile) { rec.Batch.MaxSweeps, rec.Batch.Theta = 1<<40, 0 })
	if err == nil || !strings.Contains(err.Error(), "offline schedule") {
		t.Fatalf("Get of an unbounded recipe: error %v", err)
	}
	if tasks != 0 {
		t.Errorf("the refused recipe dispatched %d sampling tasks", tasks)
	}
}

// TestRegistryRefusesOversizedSweep: a recipe asking for more coarse levels
// than the default space's group lattice holds — 11^4 = 14 641 points beside
// its 10 692 states, or 65 536, whose k^4 wraps an int to 0 — is refused
// with the bound by the cold Get that reads it, before any sampling.
func TestRegistryRefusesOversizedSweep(t *testing.T) {
	for _, k := range []int{11, 65536} {
		tasks, err := coldGetEdited(t, func(rec *recipeFile) { rec.CoarseLevels = k })
		if err == nil || !strings.Contains(err.Error(), "at most 10") {
			t.Errorf("coarseLevels %d: error %v, want one naming the bound of 10", k, err)
		}
		if tasks != 0 {
			t.Errorf("coarseLevels %d dispatched %d sampling tasks", k, tasks)
		}
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

// TestRegistryRecipeIsAnalytic: a recipe file names no sampling backend, so
// a decoded recipe samples the analytic surface whatever the file holds, and
// Put refuses a recipe that samples the simulator rather than publish a file
// that would retrain differently.
func TestRegistryRecipeIsAnalytic(t *testing.T) {
	data := readCompatRecipe(t)
	sim := append(bytes.TrimSuffix(bytes.TrimSpace(data), []byte("}")), `,"Sampling":{"Simulator":true,"MeasureSeconds":5}}`...)
	rec, err := loadRecipe(bytes.NewReader(sim))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Sampling != (core.Sampling{}) {
		t.Errorf("a recipe file set the sampling backend %+v", rec.Sampling)
	}
	reg, err := NewPolicyRegistry(t.TempDir(), config.Default(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Sampling.Simulator = true
	if p, err := reg.Put(compatRecipeKey, rec.Recipe); err == nil || p != nil {
		t.Fatalf("Put of a simulator recipe: policy returned %t, error %v", p != nil, err)
	}
	if keys := reg.Keys(); len(keys) != 0 {
		t.Errorf("the refused Put published %v", keys)
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

// compatRecipeKey names the committed recipe of the compatibility corpus,
// testdata/compat/recipe/v1/<key>.recipe.json: context-1 at two coarse levels
// and thirty sweeps, as the registry's Put wrote it. A format change adds a
// version and edits none; deleting one drops support for it.
const compatRecipeKey = "shopping-1100@Level-1"

// readCompatRecipe returns the corpus's v1 recipe file.
func readCompatRecipe(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "compat", "recipe", "v1", compatRecipeKey+recipeSuffix))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestRecipeCompatCorpus: the committed recipe retrains, through a registry
// rooted at a copy of it, to the digest it stores, and a Put of the decoded
// recipe writes its bytes back. amd64 only, like the policy corpus: other
// architectures fuse multiply-adds, so their solve need not reproduce the
// digest an amd64 build recorded.
func TestRecipeCompatCorpus(t *testing.T) {
	data := readCompatRecipe(t)
	rec, err := loadRecipe(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	space := config.Default()
	put, err := NewPolicyRegistry(t.TempDir(), space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := put.Put(compatRecipeKey, rec.Recipe)
	if err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(put.path(compatRecipeKey))
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the corpus's digest is pinned for amd64 floating point")
	}
	if !bytes.Equal(again, data) {
		t.Errorf("the decoded recipe writes\n%s\nnot\n%s", again, data)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, compatRecipeKey+recipeSuffix), data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := NewPolicyRegistry(dir, space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg.Get(compatRecipeKey)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Digest() != rec.Digest || p.Digest() != rec.Digest {
		t.Fatalf("the committed recipe does not retrain to its digest %s", rec.Digest)
	}
}

// FuzzLoadRecipe: loadRecipe never panics, and an accepted recipe encodes
// and reloads to an equal value. It seeds from a freshly published recipe and
// the committed corpus.
func FuzzLoadRecipe(f *testing.F) {
	data := recipeBytes(f)
	f.Add(data)
	f.Add(readCompatRecipe(f))
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
