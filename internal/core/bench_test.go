package core

import (
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
)

// The group-lattice hot path — the offline training MDP's transition and
// reward reads, and state-key resolution during online seeding — must stay
// allocation-free: every training sweep visits every lattice state several
// times, and the seeder runs inside the agent's per-interval retraining.
// State keys are interned in the shared group lattice, so nothing below may
// build a string. Same discipline as the telemetry 0-alloc benchmarks.

func latticeModelForBench(tb testing.TB) (*Policy, *mdp.Structure, []float64) {
	tb.Helper()
	p := flatPolicy(tb, config.Default())
	st, rewards := p.trainingMDP()
	return p, st, rewards
}

var benchSink int

func TestGroupModelHotPathAllocFree(t *testing.T) {
	p, st, rewards := latticeModelForBench(t)
	mid := len(st.States()) / 2
	if allocs := testing.AllocsPerRun(200, func() {
		for a := 0; a < st.Actions(); a++ {
			if next := st.Next(mid, a); next >= 0 {
				benchSink += int(rewards[next])
			}
		}
	}); allocs != 0 {
		t.Fatalf("group MDP transition/reward reads allocate %.1f per run, want 0", allocs)
	}

	cfg := config.Default().DefaultConfig()
	if allocs := testing.AllocsPerRun(200, func() {
		p.groupStateKey(cfg)
	}); allocs != 0 {
		t.Fatalf("groupStateKey allocates %.1f per run, want 0", allocs)
	}
	// PredictRT prices every frontier state of a retraining region and every
	// candidate of a policy-store match.
	if allocs := testing.AllocsPerRun(200, func() {
		benchSink += int(p.PredictRT(cfg))
	}); allocs != 0 {
		t.Fatalf("PredictRT allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkGroupModelNext(b *testing.B) {
	_, st, _ := latticeModelForBench(b)
	n := len(st.States())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += st.Next(i%n, i%st.Actions())
	}
}

func BenchmarkGroupStateKey(b *testing.B) {
	p, _, _ := latticeModelForBench(b)
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
