package bench

import (
	"testing"

	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/system"
)

// TestPolicyCacheTrainsEachRecipeOnce is the collision regression for the
// policy singleflight: the cache is keyed on every input a training depends
// on, so no two harness configurations share a policy trained at the wrong
// fidelity. Each variant below differs from the base in exactly one input;
// one harness requests the base and every variant twice (the option
// variants rewrite its options in between, as a per-call override would),
// and each must train exactly once, counted by bench_policy_trainings_total.
func TestPolicyCacheTrainsEachRecipeOnce(t *testing.T) {
	ctx1, err := system.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := system.ContextByName("context-2")
	if err != nil {
		t.Fatal(err)
	}
	sla := core.DefaultOptions()
	sla.SLASeconds = 3.5

	base := Options{Seed: 7, Quick: true}
	base.Agent = core.DefaultOptions()
	variants := []struct {
		name string
		opts func(*Options)
		ctx  system.Context
		smp  func(h *Harness) core.Sampling
	}{
		{name: "base", ctx: ctx1},
		{name: "context", ctx: ctx2},
		{name: "seed", opts: func(o *Options) { o.Seed = 8 }, ctx: ctx1},
		{name: "quick", opts: func(o *Options) { o.Quick = false }, ctx: ctx1},
		{name: "sla", opts: func(o *Options) { o.Agent = sla }, ctx: ctx1},
		{name: "sim-backend", ctx: ctx1, smp: (*Harness).simSampling},
		{name: "sim-windows", ctx: ctx1, smp: func(*Harness) core.Sampling {
			return core.Sampling{Simulator: true, SettleSeconds: 5, MeasureSeconds: 20}
		}},
	}

	h := New(base)
	for pass := 1; pass <= 2; pass++ {
		for i, v := range variants {
			h.opts = base
			if v.opts != nil {
				v.opts(&h.opts)
			}
			smp := core.Sampling{}
			if v.smp != nil {
				smp = v.smp(h)
			}
			if _, err := h.policySampled(v.ctx, smp); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			want := int64(i + 1)
			if pass == 2 {
				want = int64(len(variants))
			}
			if got := h.policyTrains.Value(); got != want {
				t.Fatalf("pass %d, variant %q: %d trainings, want %d", pass, v.name, got, want)
			}
		}
	}
}

// TestPolicyCacheKeysOnName: two contexts at the same coordinates under
// different names train separately, and each policy carries the name it was
// asked for.
func TestPolicyCacheKeysOnName(t *testing.T) {
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	twin := ctx
	twin.Name = "context-1-twin"
	h := New(Options{Seed: 7, Quick: true})
	for _, c := range []system.Context{ctx, twin, ctx, twin} {
		p, err := h.Policy(c)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != c.Name {
			t.Errorf("Policy(%s) returned a policy named %s", c.Name, p.Name())
		}
	}
	if got := h.policyTrains.Value(); got != 2 {
		t.Errorf("%d trainings for two names at one set of coordinates, want 2", got)
	}
}
