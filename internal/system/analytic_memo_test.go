package system

import (
	"bytes"
	"context"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// TestAnalyticMemoMatchesUnmemoized drives a memoized and an un-memoized
// Analytic (noise on, same seed) through one sequence of reconfigurations,
// workload changes and level changes — each of which must re-key the memo —
// and requires identical Metrics on every call and identical ExportState at
// the end: the memo may only ever save time. A second memoized system with
// its own noise stream shares the cache, so most of its lookups are hits on
// points the first one solved.
func TestAnalyticMemoMatchesUnmemoized(t *testing.T) {
	reg := telemetry.NewRegistry()
	memo := surface.New(reg)
	ctx := smallContext(tpcw.Ordering, vmenv.Level2)
	build := func(seed uint64, surf *surface.Cache) *Analytic {
		t.Helper()
		sys, err := NewAnalytic(AnalyticOptions{Context: ctx, NoiseSigma: 0.2, Seed: seed, Surface: surf})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plain, memoized, sharer := build(7, nil), build(7, memo), build(8, memo)
	systems := []*Analytic{plain, memoized, sharer}

	space := plain.Space()
	// A small pool of configurations, so the sequence revisits points.
	rng := sim.NewRNG(99)
	pool := make([]config.Config, 6)
	for i := range pool {
		cfg := make(config.Config, space.Len())
		for p, d := range space.Defs() {
			cfg[p] = d.Value(rng.Intn(d.Levels()))
		}
		pool[i] = cfg
	}
	levels := vmenv.Levels()
	bg := context.Background()
	for step := 0; step < 200; step++ {
		switch {
		case step%17 == 5:
			w := tpcw.Workload{Mix: tpcw.Mix(int(tpcw.Browsing) + rng.Intn(3)), Clients: 100 + 50*rng.Intn(4)}
			for _, sys := range systems {
				if err := sys.SetWorkload(w); err != nil {
					t.Fatal(err)
				}
			}
		case step%23 == 11:
			level := levels[rng.Intn(len(levels))]
			for _, sys := range systems {
				if err := sys.SetAppLevel(level); err != nil {
					t.Fatal(err)
				}
			}
		}
		cfg := pool[rng.Intn(len(pool))]
		var got [3]Metrics
		for i, sys := range systems {
			if err := sys.Apply(bg, cfg); err != nil {
				t.Fatal(err)
			}
			m, err := sys.Measure(bg)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = m
		}
		if got[0] != got[1] {
			t.Fatalf("step %d: memoized measure %+v, un-memoized %+v", step, got[1], got[0])
		}
		if got[2].Throughput != got[0].Throughput {
			t.Fatalf("step %d: sharing system read throughput %v off the memo, solver says %v",
				step, got[2].Throughput, got[0].Throughput)
		}
	}
	want, err := plain.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	have, err := memoized.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, have) {
		t.Fatalf("ExportState differs after 200 measures:\n memoized   %s\n un-memoized %s", have, want)
	}
	hits := reg.Counter("rac_surface_cache_hits_total", "", nil).Value()
	misses := reg.Counter("rac_surface_cache_misses_total", "", nil).Value()
	if hits+misses != 400 || int(misses) != memo.Len() || hits < 200 {
		t.Fatalf("memo served %d hits and %d misses over %d keys; want 400 lookups, at least the sharer's 200 as hits",
			hits, misses, memo.Len())
	}
}

// TestAnalyticMemoKeySeparatesInputs checks the inputs of the solve that are
// not the configuration: systems that differ in space layout or level fields
// must not read each other's points.
func TestAnalyticMemoKeySeparatesInputs(t *testing.T) {
	memo := surface.New(nil)
	ctx := smallContext(tpcw.Shopping, vmenv.Level1)
	measure := func(opts AnalyticOptions) float64 {
		t.Helper()
		sys, err := NewAnalytic(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m.MeanRT
	}
	// Same level name, different size: the name alone must not be the key.
	odd := ctx
	odd.Level = vmenv.Level{Name: vmenv.Level1.Name, VCPUs: 2, MemoryMB: 2048}
	// Same values, parameters in another order.
	defs := config.Table1()
	defs[0], defs[4] = defs[4], defs[0]
	swapped := config.MustSpace(defs)
	initial := config.Default().DefaultConfig()

	cases := map[string]AnalyticOptions{
		"base":        {Context: ctx},
		"level-size":  {Context: odd},
		"space-order": {Context: ctx, Space: swapped, Initial: initial},
	}
	for name, opts := range cases {
		want := measure(opts)
		opts.Surface = memo
		if got := measure(opts); got != want {
			t.Errorf("%s: first memoized measure %v, un-memoized %v", name, got, want)
		}
		if got := measure(opts); got != want {
			t.Errorf("%s: second memoized measure %v, un-memoized %v", name, got, want)
		}
	}
	if memo.Len() != len(cases) {
		t.Errorf("memo holds %d keys for %d distinct solves", memo.Len(), len(cases))
	}
}

func benchAnalytic(b *testing.B, surf *surface.Cache) (*Analytic, [2]config.Config) {
	b.Helper()
	sys, err := NewAnalytic(AnalyticOptions{Context: Table2()[1], Surface: surf})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sys.Config()
	return sys, [2]config.Config{cfg, cfg.With(sys.Space(), config.MaxClients, 300)}
}

// BenchmarkAnalyticMeasureMiss is a Measure that has to solve: a one-entry
// cache and two alternating configurations make every lookup a miss (key
// build, map insert, five approximate-MVA solves in SolveWebsite).
func BenchmarkAnalyticMeasureMiss(b *testing.B) {
	sys, cfgs := benchAnalytic(b, surface.NewBounded(nil, 1))
	bg := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Apply(bg, cfgs[i&1]); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Measure(bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticMeasureHit is the same loop against a cache that holds
// both points: key build and lookup only.
func BenchmarkAnalyticMeasureHit(b *testing.B) {
	sys, cfgs := benchAnalytic(b, surface.New(nil))
	bg := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Apply(bg, cfgs[i&1]); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Measure(bg); err != nil {
			b.Fatal(err)
		}
	}
}
