package core

import (
	"testing"

	"github.com/rac-project/rac/internal/config"
)

// The group-lattice hot path — model transitions during offline sweeps and
// state-key resolution during online seeding — must stay allocation-free:
// every BatchTrain sweep visits every lattice state several times, and the
// seeder runs inside the agent's per-interval retraining. State keys are
// interned in the lattice at construction, so nothing below may build a
// string. Same discipline as the telemetry 0-alloc benchmarks.

func latticeModelForBench(tb testing.TB) (*groupLattice, *groupModel) {
	tb.Helper()
	defs, err := groupDefs(config.Default())
	if err != nil {
		tb.Fatal(err)
	}
	lat := newGroupLattice(defs)
	return lat, newGroupModel(lat, func(vals []int) float64 { return 1 }, 2)
}

func TestGroupModelHotPathAllocFree(t *testing.T) {
	lat, model := latticeModelForBench(t)
	states := model.States()
	if allocs := testing.AllocsPerRun(200, func() {
		for a := 0; a < model.Actions(); a++ {
			model.Next(states[len(states)/2], a)
		}
		model.Reward(states[0])
	}); allocs != 0 {
		t.Fatalf("groupModel Next/Reward allocate %.1f per run, want 0", allocs)
	}

	p := &Policy{defs: lat.defs, lat: lat}
	cfg := config.Default().DefaultConfig()
	if allocs := testing.AllocsPerRun(200, func() {
		p.groupStateKey(cfg)
	}); allocs != 0 {
		t.Fatalf("groupStateKey allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkGroupModelNext(b *testing.B) {
	_, model := latticeModelForBench(b)
	states := model.States()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Next(states[i%len(states)], i%model.Actions())
	}
}

func BenchmarkGroupStateKey(b *testing.B) {
	lat, _ := latticeModelForBench(b)
	p := &Policy{defs: lat.defs, lat: lat}
	cfg := config.Default().DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.groupStateKey(cfg)
	}
}

// BenchmarkRegionShapeRebuild is the cost an agent pays each time it visits a
// new state: rebuilding Algorithm 3's retraining region from its sample keys.
func BenchmarkRegionShapeRebuild(b *testing.B) {
	space := config.Default()
	keys, cfgs := benchRegionSamples(space)
	if n := len(newRegionShape(space, keys, cfgs).states); len(keys) != 33 || n < 300 {
		b.Fatalf("region has %d samples and %d states; the benchmark is sized for 33 and a few hundred", len(keys), n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sh := newRegionShape(space, keys, cfgs); sh.structErr != nil {
			b.Fatal(sh.structErr)
		}
	}
}
