package bench

import (
	"testing"

	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/system"
)

// TestPolicyKeyDistinguishesOptions is the collision regression for the
// policy singleflight: every option a training depends on must show in the
// key, or two harness configurations could silently share a policy trained
// at the wrong fidelity. Each variant below differs from the base in exactly
// one input and must produce a distinct key.
func TestPolicyKeyDistinguishesOptions(t *testing.T) {
	ctx1, err := system.ContextByName("context-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := system.ContextByName("context-2")
	if err != nil {
		t.Fatal(err)
	}

	base := Options{Seed: 7, Quick: true}
	variants := map[string]struct {
		opts Options
		ctx  system.Context
		smp  func(h *Harness) sampling
	}{
		"context": {opts: base, ctx: ctx2},
		"seed":    {opts: Options{Seed: 8, Quick: true}, ctx: ctx1},
		"quick":   {opts: Options{Seed: 7}, ctx: ctx1},
		"sla": {opts: func() Options {
			o := Options{Seed: 7, Quick: true}
			o.Agent = core.DefaultOptions()
			o.Agent.SLASeconds = 3.5
			return o
		}(), ctx: ctx1},
		"sim-backend": {opts: base, ctx: ctx1, smp: func(h *Harness) sampling {
			return h.simSampling()
		}},
		"sim-windows": {opts: base, ctx: ctx1, smp: func(*Harness) sampling {
			return sampling{sim: true, settle: 5, measure: 20}
		}},
	}

	baseKey := New(base).policyKey(ctx1, analyticSampling)
	seen := map[string]string{"base": baseKey}
	for name, v := range variants {
		h := New(v.opts)
		smp := analyticSampling
		if v.smp != nil {
			smp = v.smp(h)
		}
		key := h.policyKey(v.ctx, smp)
		for other, k := range seen {
			if key == k {
				t.Errorf("variant %q collides with %q: key %q", name, other, key)
			}
		}
		seen[name] = key
	}
}
