package core

import (
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
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

// BenchmarkRegionInsert is the cost an agent pays when it measures a new
// state: growing the retraining region of a 33-interval history (33 samples,
// a few hundred states) by its 34th sample and laying it out again.
func BenchmarkRegionInsert(b *testing.B) {
	space := config.Default()
	trail := walkTrail(space, space.DefaultConfig(), 34, sim.NewRNG(33))
	last := trail[len(trail)-1]
	before, after := make(map[string]float64), make(map[string]float64)
	for _, key := range trail {
		after[key] = 1
		if key != last {
			before[key] = 1
		}
	}
	actions := len(config.Actions(space))
	grown := func() *region {
		r := newRegion(space, mdp.NewQTable(actions, 0), nil, 2, before)
		if err := r.bind(before); err != nil {
			b.Fatal(err)
		}
		return r
	}
	if r := grown(); len(r.samples) != 33 || len(r.rows) < 300 {
		b.Fatalf("region has %d samples and %d states; the benchmark is sized for 33 and a few hundred",
			len(r.samples), len(r.rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := grown()
		b.StartTimer()
		r.add(last)
		if err := r.bind(after); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentRetrain is a warm-started agent's retrain (Algorithm 3 step
// 9) after 33 intervals, in the steady state: the revisited state's sample
// moves and no state joins the region.
func BenchmarkAgentRetrain(b *testing.B) {
	a := steppedAgent(b, 33)
	key := a.cur.Key()
	rts := [2]float64{0.4, 1.6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.record(key, rts[i%2])
		if _, err := a.retrain(); err != nil {
			b.Fatal(err)
		}
	}
}
