package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// TestFleetAnalyticMemoByteIdentical proves the fleet-wide response-surface
// memo can only save time. The reference fleet builds its analytic backends
// through a NewSystem hook with no cache wired, so every Measure solves; the
// fleets under test share the memo, at every worker × shard combination
// (concurrent shards race for the same keys). Statuses, step records, agent
// exports and raw checkpoint files must match byte for byte. The population
// covers each way a tenant re-keys the memo mid-run: noise tenants (the draw
// sits outside the memo), a capacity tenant (level changes) and a scenario
// tenant (client count changes every interval once the ramp starts).
func TestFleetAnalyticMemoByteIdentical(t *testing.T) {
	const tenants, rounds = 60, 9
	specs := scaledSpecs(tenants)
	// Context-3 is 1100 ordering clients on the smallest VM: cold-started
	// there, the saturation analyzer scales this tenant up within the run.
	elastic := TenantSpec{Name: "scaled-elastic", Backend: "analytic", Context: "context-3",
		NoiseSigma: 0.2, Capacity: true, CapacityCost: 0.05, NoWarmStart: true}
	scenario := TenantSpec{Name: "scaled-ramp", Backend: "analytic", Context: "context-1",
		NoiseSigma: 0.1, Scenario: "ramp"}
	specs = append(specs, elastic, scenario)

	var plain *Fleet
	plain = newDeterminismFleet(t, Options{Procs: 1, Shards: 1,
		NewSystem: func(spec TenantSpec, ctx system.Context, seed uint64) (system.System, error) {
			// The fleet's own *Space: an agent checks a policy trained on
			// another space object for a matching parameter count.
			return system.NewAnalytic(system.AnalyticOptions{
				Space: plain.Space(), Context: ctx, Seed: seed, NoiseSigma: spec.NoiseSigma})
		}})
	want := runFleetSpecs(t, plain, specs, rounds)
	if len(want.cks) == 0 {
		t.Fatal("reference run wrote no checkpoints")
	}
	if plain.Surface().Len() != 0 {
		t.Fatalf("reference fleet's memo holds %d keys; its backends were meant to bypass it", plain.Surface().Len())
	}
	if st := plain.Tenant(elastic.Name).Status(); st.ScaleUps+st.ScaleDowns == 0 {
		t.Fatalf("capacity tenant never changed level (%+v); the run does not exercise level re-keying", st)
	}
	if log := want.logs[scenario.Name]; len(log) != rounds {
		t.Fatalf("scenario tenant recorded %d steps, want %d", len(log), rounds)
	}

	for _, procs := range []int{1, 8} {
		for _, shards := range []int{1, 5, 8} {
			label := fmt.Sprintf("procs=%d shards=%d", procs, shards)
			reg := telemetry.NewRegistry()
			f := newDeterminismFleet(t, Options{Procs: procs, Shards: shards, Telemetry: reg})
			got := runFleetSpecs(t, f, specs, rounds)

			hits := reg.Counter("rac_surface_cache_hits_total", "", nil).Value()
			misses := reg.Counter("rac_surface_cache_misses_total", "", nil).Value()
			if hits == 0 || hits+misses != int64(len(specs)*rounds) {
				t.Errorf("%s: memo counted %d hits + %d misses, want %d lookups with some hits",
					label, hits, misses, len(specs)*rounds)
			}
			for _, sp := range specs {
				name := sp.Name
				if !bytes.Equal(want.statuses[name], got.statuses[name]) {
					t.Errorf("%s: tenant %s status differs:\n plain %s\n  memo %s",
						label, name, want.statuses[name], got.statuses[name])
				}
				w, g := want.logs[name], got.logs[name]
				if len(w) != len(g) {
					t.Errorf("%s: tenant %s recorded %d steps, reference %d", label, name, len(g), len(w))
					continue
				}
				for i := range w {
					if w[i] != g[i] {
						t.Errorf("%s: tenant %s step %d:\n plain %+v\n  memo %+v", label, name, i+1, w[i], g[i])
						break
					}
				}
				if !bytes.Equal(want.states[name], got.states[name]) {
					t.Errorf("%s: tenant %s final agent state differs", label, name)
				}
				if !bytes.Equal(want.cks[name], got.cks[name]) {
					t.Errorf("%s: tenant %s checkpoint bytes differ", label, name)
				}
			}
		}
	}
}

// Surface returns the fleet-wide analytic response-surface memo, for
// Options.NewSystem hooks that build their own system.Analytic
// (AnalyticOptions.Surface).
func (f *Fleet) Surface() *surface.Cache { return f.surface }
