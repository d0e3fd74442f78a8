package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
)

// The group-lattice hot path — the offline training MDP's transition and
// reward reads, and the group row read during online seeding — must stay
// allocation-free: every training sweep visits every lattice state several
// times, and the seeder runs inside the agent's per-interval retraining.
// Group rows are addressed by lattice ordinal, so nothing below may build a
// string. Same discipline as the telemetry 0-alloc benchmarks.

func latticeModelForBench(tb testing.TB) (*Policy, *mdp.Structure, []float64) {
	tb.Helper()
	p := flatPolicy(tb, config.Default())
	st, rewards := p.trainingMDP(parallel.Options{Procs: 1})
	return p, st, rewards
}

var (
	benchSink int
	benchRow  []float64
)

func TestGroupModelHotPathAllocFree(t *testing.T) {
	p, st, rewards := latticeModelForBench(t)
	mid := len(st.States()) / 2
	if allocs := testing.AllocsPerRun(200, func() {
		for a := 0; a < st.Actions(); a++ {
			if next := nextOf(st, mid, a); next >= 0 {
				benchSink += int(rewards[next])
			}
		}
	}); allocs != 0 {
		t.Fatalf("group MDP transition/reward reads allocate %.1f per run, want 0", allocs)
	}

	// The seeder derives a configuration's row from the policy's values into
	// a buffer its caller keeps (a region's or an agent's).
	p.values = mdp.Values{Prev: make([]float64, len(st.States())), Val: make([]float64, len(st.States()))}
	cfg := config.Default().DefaultConfig()
	row := make([]float64, len(config.Actions(config.Default())))
	if allocs := testing.AllocsPerRun(200, func() {
		p.SeedRow(cfg, row)
	}); allocs != 0 {
		t.Fatalf("the seeder's group row read allocates %.1f per run, want 0", allocs)
	}
	benchRow = make([]float64, 0, st.Actions())
	if allocs := testing.AllocsPerRun(200, func() {
		benchRow = p.rowAt(benchRow[:0], int(p.groups.Ordinal(cfg)))
	}); allocs != 0 {
		t.Fatalf("a group row read into a held buffer allocates %.1f per run, want 0", allocs)
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
		benchSink += nextOf(st, i%n, i%st.Actions())
	}
}

// BenchmarkRegionInsert is the cost an agent pays when it measures a new
// state: growing the retraining region of a 33-interval history (33 samples,
// a few hundred states) by its 34th sample and compiling it again.
func BenchmarkRegionInsert(b *testing.B) {
	space := config.Default()
	trail := walkTrail(space, space.DefaultConfig(), 34, sim.NewRNG(33))
	cfgs := make([]config.Config, len(trail))
	for i, key := range trail {
		cfg, err := config.ParseKey(key)
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = cfg
	}
	last := cfgs[len(cfgs)-1]
	grown := func() *region {
		r := emptyRegion(space, 2)
		for _, cfg := range cfgs[:len(cfgs)-1] {
			if !cfg.Equal(last) {
				r.record(space.Ordinal(cfg), cfg, 1)
			}
		}
		if err := r.bind(); err != nil {
			b.Fatal(err)
		}
		return r
	}
	if r := grown(); len(r.samples) != 33 || len(r.rewards) < 300 {
		b.Fatalf("region has %d samples and %d states; the benchmark is sized for 33 and a few hundred",
			len(r.samples), len(r.rewards))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := grown()
		b.StartTimer()
		r.record(space.Ordinal(last), last, 1)
		if err := r.bind(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentRetrain is a warm-started agent's retrain (Algorithm 3 step
// 9) after 33 intervals, in the steady state: the revisited state's sample
// moves and no state joins the region.
func BenchmarkAgentRetrain(b *testing.B) {
	a := steppedAgent(b, 33)
	cfg := a.cur.Clone()
	ord := a.space.Ordinal(cfg)
	rts := [2]float64{0.4, 1.6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.region.record(ord, cfg, rts[i%2])
		if _, err := a.retrain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLearnPolicy is one policy of the train-cold workload: Algorithm 2
// for Table 2's context-1 over the analytic surface at full fidelity — the
// coarse sweep through system.AnalyticSampler, the regression fit, the reward
// pass and the offline solve — at one and two workers.
func BenchmarkLearnPolicy(b *testing.B) {
	space := config.Default()
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			opts := InitOptions{Procs: procs, BatchSampler: system.AnalyticSampler(space, ctx, nil)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := LearnPolicyStream(ctx.Name, space, nil, opts)
				if err != nil {
					b.Fatal(err)
				}
				benchRow = p.values.Val
			}
		})
	}
}

// benchPolicy is one trained default-space policy: Table 2's context-1 over
// the analytic surface, 10 692 group states × 9 actions.
func benchPolicy(b *testing.B) *Policy {
	space := config.Default()
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		b.Fatal(err)
	}
	p, err := LearnPolicyStream(ctx.Name, space, nil, InitOptions{BatchSampler: system.AnalyticSampler(space, ctx, nil)})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPolicySave writes benchPolicy's document, as racpolicy -o does.
func BenchmarkPolicySave(b *testing.B) {
	p := benchPolicy(b)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := p.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadPolicy reads benchPolicy's document back, as racpolicy
// -inspect does (load), beside what a load cannot avoid: the reward pass and
// the offline solve it runs again (solve).
func BenchmarkLoadPolicy(b *testing.B) {
	p := benchPolicy(b)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadPolicy(bytes.NewReader(buf.Bytes()), p.Space()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.solve(p.Schedule(), parallel.Options{Procs: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPolicyDigest hashes benchPolicy's content, as the fleet registry
// does on every Put and on every retrain of a recipe.
func BenchmarkPolicyDigest(b *testing.B) {
	p := benchPolicy(b)
	b.SetBytes(int64(8 * p.lattice.Len() * p.lattice.Actions()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDigest = p.Digest()
	}
}

var benchDigest string
