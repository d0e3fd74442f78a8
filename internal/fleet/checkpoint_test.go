package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/system"
)

// testCheckpoint builds a small but real checkpoint (live agent state).
func testCheckpoint(t testing.TB, tenant string, interval int) *Checkpoint {
	t.Helper()
	sys, err := system.NewAnalytic(system.AnalyticOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAgent(sys, core.AgentOptions{Seed: uint64(interval) + 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < interval; i++ {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{
		Tenant:   tenant,
		Spec:     TenantSpec{Name: tenant, Backend: "analytic"},
		Interval: interval,
		Agent:    st,
	}
}

func TestCheckpointEnvelopeRoundTrip(t *testing.T) {
	ck := testCheckpoint(t, "shop-a", 3)
	buf, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != ck.Tenant || got.Interval != ck.Interval {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Agent == nil || got.Agent.Iteration != ck.Agent.Iteration {
		t.Fatal("agent state did not survive the round trip")
	}
}

func TestCheckpointEnvelopeRejectsCorruption(t *testing.T) {
	ck := testCheckpoint(t, "shop-a", 2)
	buf, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"short":     buf[:checkpointHeader-3],
		"truncated": buf[:len(buf)-10],
		"bad magic": append([]byte("NOTMAGIC"), buf[8:]...),
	}
	flipped := append([]byte(nil), buf...)
	flipped[checkpointHeader+5] ^= 0x40 // payload bit flip → CRC mismatch
	cases["bit flip"] = flipped
	badVersion := append([]byte(nil), buf...)
	badVersion[8] = checkpointVersion + 1
	cases["future version"] = badVersion

	for name, mutated := range cases {
		if _, err := decodeCheckpoint(mutated); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: want ErrCorruptCheckpoint, got %v", name, err)
		}
	}

	// A payload that is valid JSON but has no agent state is corrupt too.
	empty, err := encodeCheckpoint(&Checkpoint{Tenant: "x", Agent: ck.Agent})
	if err != nil {
		t.Fatal(err)
	}
	noAgent := bytes.Replace(empty, []byte(`"agent"`), []byte(`"nope!"`), 1)
	// Recompute nothing: the replacement changes payload bytes, so the CRC
	// already rejects it — both failure modes satisfy the corrupt contract.
	if _, err := decodeCheckpoint(noAgent); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("agent-less payload: want ErrCorruptCheckpoint, got %v", err)
	}
}

// FuzzDecodeCheckpoint holds decodeCheckpoint, which reads files a crash
// may have torn, to three properties: no input panics it, every rejection
// wraps ErrCorruptCheckpoint, and an accepted checkpoint re-encodes to an
// envelope that decodes to an equal one — equal as the encoder sees it, the
// second encoding byte for byte the first (an empty slice or map that the
// encoder omits decodes as nil). Each input is decoded twice: as an
// envelope, and as the payload of a well-formed envelope, so mutations reach
// the JSON decoder past the CRC. The seeds are a real checkpoint, a
// truncation, a flipped CRC, a wrong version and a wrong length, and every
// file of the committed checkpoint corpus, every version of it.
func FuzzDecodeCheckpoint(f *testing.F) {
	buf, err := encodeCheckpoint(testCheckpoint(f, "shop-a", 1))
	if err != nil {
		f.Fatal(err)
	}
	damage := func(mutate func([]byte)) []byte {
		out := bytes.Clone(buf)
		mutate(out)
		return out
	}
	f.Add(buf)
	f.Add(buf[:len(buf)-7])
	f.Add(damage(func(b []byte) { b[20] ^= 0x01 }))
	f.Add(damage(func(b []byte) { b[8] = checkpointVersion + 1 }))
	f.Add(damage(func(b []byte) { b[12]-- }))
	f.Add(buf[checkpointHeader:])
	corpus, err := filepath.Glob(filepath.Join("testdata", "compat", "checkpoint", "*", "*", "*"+checkpointExt))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no checkpoint corpus (%v)", err)
	}
	for _, name := range corpus {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealCheckpoint(data)} {
			ck, err := decodeCheckpoint(in)
			if err != nil {
				if !errors.Is(err, ErrCorruptCheckpoint) {
					t.Fatalf("rejection does not wrap ErrCorruptCheckpoint: %v", err)
				}
				continue
			}
			first, err := encodeCheckpoint(ck)
			if err != nil {
				t.Fatalf("accepted checkpoint does not encode: %v", err)
			}
			again, err := decodeCheckpoint(first)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			second, err := encodeCheckpoint(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("re-encoded checkpoint decodes to a different one:\n%s\nvs\n%s",
					first[checkpointHeader:], second[checkpointHeader:])
			}
		}
	})
}

func TestCheckpointStoreWriteLatestPrune(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, interval := range []int{5, 10, 15, 20} {
		ck := testCheckpoint(t, "shop-a", interval)
		if _, err := store.Write(ck); err != nil {
			t.Fatal(err)
		}
	}

	files := store.files("shop-a")
	if len(files) != 2 {
		t.Fatalf("retention kept %d files, want 2: %v", len(files), files)
	}

	ck, path, err := store.Latest("shop-a")
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Interval != 20 {
		t.Fatalf("Latest returned %+v, want interval 20", ck)
	}

	// Truncate the newest snapshot mid-payload: Latest must fall back to the
	// previous one instead of failing.
	if err := os.Truncate(path, 40); err != nil {
		t.Fatal(err)
	}
	ck, _, err = store.Latest("shop-a")
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Interval != 15 {
		t.Fatalf("after corruption Latest returned %+v, want interval 15", ck)
	}

	// All snapshots corrupt → cold start, not an error.
	for _, f := range store.files("shop-a") {
		if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ck, path, err = store.Latest("shop-a")
	if err != nil || ck != nil || path != "" {
		t.Fatalf("all-corrupt Latest = (%v, %q, %v), want cold start", ck, path, err)
	}

	// Unknown tenant → cold start too.
	ck, _, err = store.Latest("never-admitted")
	if err != nil || ck != nil {
		t.Fatalf("unknown tenant Latest = (%v, %v), want cold start", ck, err)
	}
}

func TestCheckpointStoreSanitizesTenantNames(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ck := testCheckpoint(t, "shop/../../etc", 1)
	path, err := store.Write(ck)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.IsAbs(rel) || rel == ".." || strings.HasPrefix(rel, "..") {
		t.Fatalf("checkpoint escaped the store root: %s", path)
	}
	got, _, err := store.Latest("shop/../../etc")
	if err != nil || got == nil {
		t.Fatalf("sanitized tenant not found again: %v %v", got, err)
	}
}

// TestCheckpointStoreTenantDirsAreDistinct holds the store to one directory
// per tenant, directly under its root, for names an admin request may carry:
// ".." must not write or prune in the root's parent, nor "." in the root
// itself, and "a/" and "a_x2f" (like "/1" and "\u02f1") must not share a
// directory, where one tenant would restore the other's learned state.
// Latest also skips a snapshot that names another tenant, as it skips a
// corrupt one.
func TestCheckpointStoreTenantDirsAreDistinct(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"..", ".", ".x", "a/", "a_x2f", "a_", "_", "/1", "\u02f1"}
	owner := map[string]string{}
	for _, name := range names {
		path, err := store.Write(testCheckpoint(t, name, 1))
		if err != nil {
			t.Fatal(err)
		}
		tdir := filepath.Dir(path)
		if filepath.Dir(tdir) != dir {
			t.Errorf("tenant %q wrote %s, not in its own directory under the store", name, path)
		}
		if prev, ok := owner[tdir]; ok {
			t.Errorf("tenants %q and %q share %s", prev, name, tdir)
		}
		owner[tdir] = name
	}
	latest := func(name string) (string, int) {
		t.Helper()
		ck, _, err := store.Latest(name)
		if err != nil {
			t.Fatal(err)
		}
		if ck == nil {
			return "", 0
		}
		return ck.Tenant, ck.Interval
	}
	for _, name := range names {
		if got, _ := latest(name); got != name {
			t.Errorf("Latest(%q) restored tenant %q", name, got)
		}
	}

	foreign, err := encodeCheckpoint(testCheckpoint(t, "b", 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.checkpointPath("a/", 9), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, interval := latest("a/"); got != "a/" || interval != 1 {
		t.Errorf("with another tenant's newer snapshot in its directory, Latest(%q) = %q at %d, want its own at 1",
			"a/", got, interval)
	}
}

// TestPolicyRegistryRoundTrip publishes the six Table-2 contexts' recipes;
// a fresh fleet over the directory, with no training schedule of its own,
// retrains each into the policy that was published, byte for byte.
func TestPolicyRegistryRoundTrip(t *testing.T) {
	f, err := New(Options{Seed: 11, RegistryDir: t.TempDir(), TrainInit: fastTrain()})
	if err != nil {
		t.Fatal(err)
	}
	reg := f.registry
	if p, err := reg.Get("no-such-context"); err != nil || p != nil {
		t.Fatalf("missing key Get = (%v, %v), want (nil, nil)", p, err)
	}
	published := make(map[string][]byte)
	for _, ctx := range system.Table2() {
		key := ContextKey(ctx)
		p, err := reg.Put(key, f.recipe(TenantSpec{Name: "seeded"}, ctx, key))
		if err != nil {
			t.Fatal(err)
		}
		published[key] = saveBytes(t, p)
	}

	f2, err := New(Options{Seed: 11, RegistryDir: reg.dir})
	if err != nil {
		t.Fatal(err)
	}
	if keys := f2.registry.Keys(); len(keys) != len(published) {
		t.Fatalf("Keys = %v, want %d entries", keys, len(published))
	}
	for key, want := range published {
		got, err := f2.registry.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.Name() != key || !bytes.Equal(saveBytes(t, got), want) {
			t.Errorf("%s: the retrained policy is not the published one", key)
		}
	}
}

// TestPolicyRegistryConcurrentPutGet runs Puts and Gets of several contexts
// at once (under -race in make check): two writers per key racing to
// replace its recipe, and readers of the other keys. Afterwards every recipe
// file holds the digest of its cached policy, so the file and the cache
// agree on the last Put.
func TestPolicyRegistryConcurrentPutGet(t *testing.T) {
	space := config.MustSpace([]config.Def{
		{Param: config.MaxClients, Name: "a", Group: config.GroupCapacity, Min: 50, Max: 250, Step: 50, Default: 150},
		{Param: config.KeepAliveTimeout, Name: "b", Group: config.GroupTimeout, Min: 1, Max: 21, Step: 5, Default: 6},
	})
	reg, err := NewPolicyRegistry(t.TempDir(), space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const keys, writes = 4, 20
	recipes := make([][2]core.Recipe, keys)
	digests := make([][2]string, keys)
	for k := range recipes {
		for j := range recipes[k] {
			rec := core.Recipe{Mix: "shopping", Clients: 100 + 50*k, Level: "Level-1",
				SLASeconds: float64(1 + k + j), CoarseLevels: 2}
			p, err := rec.Train("probe", space, parallel.Options{Procs: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			recipes[k][j], digests[k][j] = rec, p.Digest()
		}
		if _, err := reg.Put(fmt.Sprint("key-", k), recipes[k][0]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := fmt.Sprint("key-", k)
		for j := range recipes[k] {
			wg.Add(1)
			go func(rec core.Recipe) {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					if _, err := reg.Put(key, rec); err != nil {
						t.Error(err)
						return
					}
				}
			}(recipes[k][j])
		}
		wg.Add(1)
		go func(other int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				p, err := reg.Get(fmt.Sprint("key-", other))
				if err != nil || p == nil || !slices.Contains(digests[other][:], p.Digest()) {
					t.Errorf("Get(key-%d) = %v, %v during concurrent Puts", other, p, err)
					return
				}
			}
		}((k + 1) % keys)
	}
	wg.Wait()

	for k := 0; k < keys; k++ {
		key := fmt.Sprint("key-", k)
		onDisk, err := os.ReadFile(reg.path(key))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := loadRecipe(bytes.NewReader(onDisk))
		if err != nil {
			t.Fatal(err)
		}
		cached, err := reg.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Digest != cached.Digest() {
			t.Fatalf("%s: the recipe's digest is not the cached policy %q's", key, cached.Name())
		}
	}
	if entries, err := os.ReadDir(reg.dir); err != nil || len(entries) != keys {
		t.Fatalf("registry directory holds %d entries (%v), want %d recipe files", len(entries), err, keys)
	}
}
