package bench

import (
	"bytes"
	"sync"
	"testing"

	"github.com/rac-project/rac/internal/system"
)

// newHarness builds a harness, dropping its surface memo when noCache is set:
// the uncached reference the cache invariants compare against (a nil
// *surface.Cache computes every evaluation).
func newHarness(opts Options, noCache bool) *Harness {
	h := New(opts)
	if noCache {
		h.surf = nil
	}
	return h
}

// cachedStoreBytes is storeBytes with an explicit cache switch.
func cachedStoreBytes(t *testing.T, seed uint64, procs int, simSampling, noCache bool, contexts []system.Context) [][]byte {
	t.Helper()
	h := newHarness(Options{Seed: seed, Quick: true, SimSampling: simSampling, Procs: procs}, noCache)
	store, err := h.Store(contexts...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(contexts))
	for i, ctx := range contexts {
		p := store.ByName(ctx.Name)
		if p == nil {
			t.Fatalf("store lacks %s", ctx.Name)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestCachedStoreMatchesUncached pins the surface memo's invariant: policies
// trained with the cache on (at either worker count) are byte-identical to
// policies trained with it off. The sim-sampling case exercises the
// draw-seed-before-lookup discipline — a hit must consume the sample's RNG
// stream exactly like a miss.
func TestCachedStoreMatchesUncached(t *testing.T) {
	contexts := make([]system.Context, 0, 2)
	for _, name := range []string{"context-1", "context-2"} {
		ctx, err := system.ContextByName(name)
		if err != nil {
			t.Fatal(err)
		}
		contexts = append(contexts, ctx)
	}

	uncached := cachedStoreBytes(t, 21, 1, false, true, contexts)
	for _, procs := range []int{1, 8} {
		cached := cachedStoreBytes(t, 21, procs, false, false, contexts)
		for i, ctx := range contexts {
			if !bytes.Equal(cached[i], uncached[i]) {
				t.Errorf("cached (Procs=%d) analytic policy for %s differs from uncached", procs, ctx.Name)
			}
		}
	}

	if testing.Short() {
		t.Skip("simulator sampling is slow")
	}
	simCtx := contexts[:1]
	simUncached := cachedStoreBytes(t, 22, 1, true, true, simCtx)
	simCached := cachedStoreBytes(t, 22, 8, true, false, simCtx)
	if !bytes.Equal(simCached[0], simUncached[0]) {
		t.Error("cached sim-sampled policy differs from uncached")
	}
}

// TestCachedFigureMatchesUncached renders one full figure with and without
// the memo (and across worker counts) and asserts byte-identical output —
// the end-to-end form of the cache invariant.
func TestCachedFigureMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	render := func(procs int, noCache bool) []byte {
		h := newHarness(Options{Seed: 23, Quick: true, Procs: procs}, noCache)
		fig, err := h.Fig04()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	uncached := render(1, true)
	for _, procs := range []int{1, 8} {
		if got := render(procs, false); !bytes.Equal(got, uncached) {
			t.Errorf("cached figure (Procs=%d) differs from uncached", procs)
		}
	}
}

// TestSurfaceCacheCountsHits asserts the memo actually absorbs repeated
// evaluations: retraining sweeps and best-config searches revisit lattice
// points, so a figure-scale workload must record hits.
func TestSurfaceCacheCountsHits(t *testing.T) {
	h := New(Options{Seed: 24, Quick: true})
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Policy(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.bestGroupedConfig(ctx); err != nil {
		t.Fatal(err)
	}
	hits := h.tel.Counter("rac_surface_cache_hits_total", "", nil).Value()
	misses := h.tel.Counter("rac_surface_cache_misses_total", "", nil).Value()
	if misses == 0 {
		t.Fatal("no surface evaluations recorded")
	}
	if hits == 0 {
		t.Fatalf("no cache hits despite overlapping sweeps (misses=%d)", misses)
	}
}

// TestConcurrentStoreRace drives concurrent Store and Policy calls through
// one harness so the race detector can check the surface memo and policy
// singleflight under contention.
func TestConcurrentStoreRace(t *testing.T) {
	h := New(Options{Seed: 25, Quick: true, Procs: 4})
	contexts := make([]system.Context, 0, 3)
	for _, name := range []string{"context-1", "context-2", "context-3"} {
		ctx, err := system.ContextByName(name)
		if err != nil {
			t.Fatal(err)
		}
		contexts = append(contexts, ctx)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				if _, err := h.Store(contexts...); err != nil {
					t.Errorf("Store: %v", err)
				}
				return
			}
			for _, ctx := range contexts {
				if _, err := h.Policy(ctx); err != nil {
					t.Errorf("Policy(%s): %v", ctx.Name, err)
				}
			}
		}(w)
	}
	wg.Wait()
}
