// Benchmarks regenerating the paper's evaluation. One benchmark per figure
// (quick-fidelity mode; run cmd/racbench for the full-fidelity tables), plus
// micro-benchmarks of the core machinery and ablation benches for the design
// choices called out in DESIGN.md.
//
//	go test -bench=. -benchmem
package rac_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"github.com/rac-project/rac"
	"github.com/rac-project/rac/internal/bench"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/queueing"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// benchFigure runs one figure generation per iteration in quick mode.
func benchFigure(b *testing.B, gen func(h *bench.Harness) (*bench.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		h := bench.New(bench.Options{Seed: uint64(i + 1), Quick: true})
		fig, err := gen(h)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// Paper Figure 1: cross-workload best-configuration matrix.
func BenchmarkFig01CrossWorkload(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig01)
}

// Paper Figure 2: MaxClients sweep per VM level.
func BenchmarkFig02MaxClients(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig02)
}

// Paper Figure 3: cross-VM-level best-configuration matrix.
func BenchmarkFig03CrossVM(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig03)
}

// Paper Figure 4: concavity and regression fit.
func BenchmarkFig04Regression(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig04)
}

// Paper Figure 5: RAC vs static default vs trial-and-error across contexts.
func BenchmarkFig05Policies(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig05)
}

// Paper Figure 6: online learning on/off.
func BenchmarkFig06OnlineLearning(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig06)
}

// Paper Figures 7(a)/(b): policy initialization on/off.
func BenchmarkFig07PolicyInit(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig07)
}

// Paper Figure 8: online exploration-rate sweep.
func BenchmarkFig08Exploration(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig08)
}

// Paper Figures 9(a)/(b): static vs adaptive initial policy.
func BenchmarkFig09StaticVsAdaptive(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig09)
}

// Paper Figure 10: initialization strategies under context changes.
func BenchmarkFig10InitStrategies(b *testing.B) {
	benchFigure(b, (*bench.Harness).Fig10)
}

// BenchmarkFig05Training isolates the policy-training share of Figure 5: the
// store over the three schedule contexts plus the initial policy, on a fresh
// harness each iteration so nothing is served from the policy cache. This is
// the number `make bench-train` pins in BENCH_train.json and the
// bench-train-smoke gate guards against regressions.
func BenchmarkFig05Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(bench.Options{Seed: uint64(i + 1), Quick: true})
		var ctxs []system.Context
		for _, name := range []string{"context-1", "context-2", "context-3"} {
			ctx, err := system.ContextByName(name)
			if err != nil {
				b.Fatal(err)
			}
			ctxs = append(ctxs, ctx)
		}
		store, err := h.Store(ctxs...)
		if err != nil {
			b.Fatal(err)
		}
		if store.Len() != len(ctxs) {
			b.Fatalf("store has %d policies, want %d", store.Len(), len(ctxs))
		}
		if _, err := h.Policy(ctxs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the machinery.

func BenchmarkQTableUpdate(b *testing.B) {
	q := mdp.NewQTable(17, 0)
	learner, err := mdp.NewLearner(q, mdp.DefaultOnline(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	states := make([]string, 64)
	for i := range states {
		states[i] = "state-" + strconv.Itoa(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := states[i%len(states)]
		next := states[(i+1)%len(states)]
		learner.UpdateSARSA(s, i%17, 1.5, next, (i+3)%17)
	}
}

func BenchmarkExactMVA(b *testing.B) {
	stations := []queueing.Station{
		{Name: "web", Demand: 0.011, Rate: queueing.MultiServer(2)},
		{Name: "appdb", Demand: 0.019, Rate: queueing.MultiServer(3)},
		{Name: "disk", Demand: 0.03},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queueing.Solve(200, 12, stations); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproxMVA(b *testing.B) {
	stations := []queueing.Station{
		{Name: "web", Demand: 0.011, Rate: queueing.MultiServer(2)},
		{Name: "appdb", Demand: 0.019, Rate: queueing.MultiServer(3)},
		{Name: "disk", Demand: 0.03},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queueing.SolveApprox(800, 12, stations); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWebsiteSurface(b *testing.B) {
	cal := webtier.DefaultCalibration()
	params := webtier.DefaultParams()
	w := tpcw.Workload{Mix: tpcw.Ordering, Clients: 800}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queueing.SolveWebsite(cal, params, w, vmenv.Level3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorMinute measures simulating one virtual minute of the
// 800-browser testbed.
func BenchmarkSimulatorMinute(b *testing.B) {
	m, err := webtier.New(webtier.Options{
		Workload: tpcw.Workload{Mix: tpcw.Ordering, Clients: 800},
		AppLevel: vmenv.Level1,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Warmup(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyInitialization(b *testing.B) {
	space := config.Default()
	ctx, err := system.ContextByName("context-2")
	if err != nil {
		b.Fatal(err)
	}
	analytic, err := system.NewAnalytic(system.AnalyticOptions{Space: space, Context: ctx})
	if err != nil {
		b.Fatal(err)
	}
	sampler := func(cfg config.Config, _ *sim.RNG) (float64, error) {
		if err := analytic.Apply(context.Background(), cfg); err != nil {
			return 0, err
		}
		m, err := analytic.Measure(context.Background())
		if err != nil {
			return 0, err
		}
		return m.MeanRT, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LearnPolicyStream("bench", space, sampler, core.InitOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentIteration measures one full online iteration (reconfigure,
// measure a 5-minute virtual interval, retrain) on the simulated testbed.
func BenchmarkAgentIteration(b *testing.B) {
	ctx, err := system.ContextByName("context-2")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := system.NewSimulated(system.SimulatedOptions{Context: ctx, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	agent, err := core.NewAgent(sys, core.AgentOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Step(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations: design choices called out in DESIGN.md.

// BenchmarkAblationSwitchThreshold probes the stability/adaptability
// trade-off of s_thr (paper §4.3): each run tunes through a context change
// with a different switch threshold and reports the mean post-change
// response time as a custom metric.
func BenchmarkAblationSwitchThreshold(b *testing.B) {
	for _, sthr := range []int{2, 5, 8} {
		b.Run(fmt.Sprintf("sthr=%d", sthr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := bench.New(bench.Options{Seed: uint64(i + 1), Quick: true})
				ctx1, _ := system.ContextByName("context-1")
				ctx3, _ := system.ContextByName("context-3")
				store, err := h.Store(ctx1, ctx3)
				if err != nil {
					b.Fatal(err)
				}
				initial := store.ByName("context-1")
				opts := core.DefaultOptions()
				opts.SwitchThreshold = sthr
				mk := func(sys system.System) (core.Tuner, error) {
					return core.NewAgent(sys, core.AgentOptions{
						Options: opts,
						Policy:  initial,
						Store:   store,
						Seed:    uint64(i + 1),
					})
				}
				results, err := h.RunSchedule(mk, []bench.Phase{
					{Context: ctx1, Iterations: 6},
					{Context: ctx3, Iterations: 10},
				}, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				var post float64
				for _, r := range results[6:] {
					post += r.MeanRT
				}
				b.ReportMetric(post/10, "postRT-s")
			}
		})
	}
}

// BenchmarkAblationBatchEpsilon probes the batch-training exploration rate
// (paper §5.5 uses 0.1).
func BenchmarkAblationBatchEpsilon(b *testing.B) {
	for _, eps := range []float64{0.02, 0.1, 0.3} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := bench.New(bench.Options{Seed: uint64(i + 1), Quick: true})
				ctx, _ := system.ContextByName("context-3")
				policy, err := h.Policy(ctx)
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.Batch.Epsilon = eps
				mk := func(sys system.System) (core.Tuner, error) {
					return core.NewAgent(sys, core.AgentOptions{
						Options: opts,
						Policy:  policy,
						Seed:    uint64(i + 1),
					})
				}
				results, err := h.RunSchedule(mk, []bench.Phase{{Context: ctx, Iterations: 10}}, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				var mean float64
				for _, r := range results {
					mean += r.MeanRT
				}
				b.ReportMetric(mean/float64(len(results)), "meanRT-s")
			}
		})
	}
}

// BenchmarkAblationBackends compares the simulated and analytic measurement
// backends on the same configuration.
func BenchmarkAblationBackends(b *testing.B) {
	ctx, err := system.ContextByName("context-2")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("simulated", func(b *testing.B) {
		sys, err := rac.NewSimulatedSystem(rac.SimulatedOptions{Context: ctx, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Measure(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analytic", func(b *testing.B) {
		sys, err := rac.NewAnalyticSystem(rac.AnalyticOptions{Context: ctx, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Measure(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
