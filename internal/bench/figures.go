package bench

import (
	"fmt"
	"math"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/regression"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// rtSeries extracts mean response times from step results.
func rtSeries(results []core.StepResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.MeanRT
	}
	return out
}

// tunerRun is one labelled series of an iteration figure: the tuner driven
// through the figure's schedule.
type tunerRun struct {
	label string
	mk    TunerFactory
}

// runSeries drives each run through the phases on an identically salted
// system and appends its response-time series to the figure.
func (h *Harness) runSeries(fig *Figure, phases []Phase, salt uint64, runs ...tunerRun) error {
	for _, r := range runs {
		results, err := h.RunSchedule(r.mk, phases, salt)
		if err != nil {
			return fmt.Errorf("bench: %s %s: %w", fig.ID, r.label, err)
		}
		fig.Series = append(fig.Series, Series{Label: r.label, Values: rtSeries(results)})
	}
	return nil
}

// agent returns a factory for the RAC agent: the harness's hyper-parameters
// unless o sets its own, and the harness seed folded with the figure's tag.
func (h *Harness) agent(tag uint64, o core.AgentOptions) TunerFactory {
	if o.Options == (core.Options{}) {
		o.Options = h.opts.Agent
	}
	o.Seed = h.opts.Seed ^ tag
	return func(sys system.System) (core.Tuner, error) { return core.NewAgent(sys, o) }
}

// iterFigure returns an empty figure of response time per iteration.
func iterFigure(id, title string, iters int) *Figure {
	return &Figure{
		ID:     id,
		Title:  title,
		XLabel: "iteration",
		YLabel: "mean response time (s)",
		X:      seqX(iters),
	}
}

// panels fills the layout Figures 6–9 share: for each named context, one
// single-phase schedule as long as the figure's axis, driven by the runs
// built from that context's offline policy.
func (h *Harness) panels(fig *Figure, salt uint64, names []string, runs func(name string, policy *core.Policy) []tunerRun) error {
	for _, name := range names {
		ctx, err := system.ContextByName(name)
		if err != nil {
			return err
		}
		policy, err := h.Policy(ctx)
		if err != nil {
			return err
		}
		phases := []Phase{{Context: ctx, Iterations: len(fig.X)}}
		if err := h.runSeries(fig, phases, salt, runs(name, policy)...); err != nil {
			return err
		}
	}
	return nil
}

// crossBest fills the layout Figures 1 and 3 share: find each context's best
// configuration over its test cases (the coarse grouped lattice), then
// measure every context under every context's best configuration.
func (h *Harness) crossBest(fig *Figure, names []string, ctxs []system.Context) error {
	best := make([]config.Config, len(ctxs))
	for i, ctx := range ctxs {
		cfg, _, err := h.bestGroupedConfig(ctx)
		if err != nil {
			return err
		}
		best[i] = cfg
	}
	seeds := h.averagingSeeds()
	for bi, name := range names {
		series := Series{Label: name + "-best"}
		for _, target := range ctxs {
			rt, err := h.measureConfig(target, best[bi], seeds)
			if err != nil {
				return err
			}
			series.Values = append(series.Values, rt)
		}
		fig.Series = append(fig.Series, series)
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s-best config: %s", name, best[bi].Format(h.space)))
	}
	return nil
}

// maxClientsSweep measures the default configuration at every MaxClients
// level in the context (the sweep of Figures 2 and 4).
func (h *Harness) maxClientsSweep(ctx system.Context) (xs, ys []float64, err error) {
	idx, ok := h.space.Lookup(config.MaxClients)
	if !ok {
		return nil, nil, fmt.Errorf("bench: space lacks MaxClients")
	}
	def := h.space.Def(idx)
	for l := 0; l < def.Levels(); l++ {
		cfg := h.space.DefaultConfig()
		cfg[idx] = def.Value(l)
		rt, err := h.measureConfig(ctx, cfg, h.averagingSeeds())
		if err != nil {
			return nil, nil, err
		}
		xs = append(xs, float64(cfg[idx]))
		ys = append(ys, rt)
	}
	return xs, ys, nil
}

// Fig01 reproduces paper Figure 1: no single configuration suits all
// workload mixes (each mix's best configuration on Level-1, cross-applied).
func (h *Harness) Fig01() (*Figure, error) {
	fig := &Figure{
		ID:     "fig1",
		Title:  "Performance under configurations tuned for different workloads (Level-1)",
		XLabel: "workload",
		YLabel: "mean response time (s)",
		X:      []float64{1, 2, 3},
		Notes:  []string{"x: 1=browsing 2=shopping 3=ordering"},
	}
	var names []string
	var ctxs []system.Context
	for _, mix := range tpcw.Mixes() {
		names = append(names, mix.String())
		ctxs = append(ctxs, contextWith(mix, vmenv.Level1))
	}
	return fig, h.crossBest(fig, names, ctxs)
}

// Fig02 reproduces paper Figure 2: the effect of MaxClients under different
// VM levels (ordering mix). The optimal MaxClients shifts down as the VM
// gets stronger.
func (h *Harness) Fig02() (*Figure, error) {
	fig := &Figure{
		ID:     "fig2",
		Title:  "Effect of MaxClients on performance per VM level (ordering mix)",
		XLabel: "MaxClients",
		YLabel: "mean response time (s)",
	}
	for _, level := range vmenv.Levels() {
		xs, ys, err := h.maxClientsSweep(contextWith(tpcw.Ordering, level))
		if err != nil {
			return nil, err
		}
		fig.X = xs
		fig.Series = append(fig.Series, Series{Label: level.Name, Values: ys})
	}
	return fig, nil
}

// Fig03 reproduces paper Figure 3: no single configuration suits all VM
// levels (each level's best configuration for the ordering mix,
// cross-applied).
func (h *Harness) Fig03() (*Figure, error) {
	fig := &Figure{
		ID:     "fig3",
		Title:  "Performance under configurations tuned for different VM levels (ordering mix)",
		XLabel: "level",
		YLabel: "mean response time (s)",
		X:      []float64{1, 2, 3},
		Notes:  []string{"x: 1=Level-1 2=Level-2 3=Level-3"},
	}
	var names []string
	var ctxs []system.Context
	for _, level := range vmenv.Levels() {
		names = append(names, level.Name)
		ctxs = append(ctxs, contextWith(tpcw.Ordering, level))
	}
	return fig, h.crossBest(fig, names, ctxs)
}

// Fig04 reproduces paper Figure 4: the concave-upward effect of MaxClients
// and its polynomial-regression fit (ordering on Level-1).
func (h *Harness) Fig04() (*Figure, error) {
	xs, ys, err := h.maxClientsSweep(contextWith(tpcw.Ordering, vmenv.Level1))
	if err != nil {
		return nil, err
	}
	// Fit in log space, as policy initialization does: the response time
	// spans orders of magnitude across the overload cliff and a raw
	// polynomial would go negative on the flat side.
	logYs := make([]float64, len(ys))
	for i, y := range ys {
		logYs[i] = math.Log(math.Max(y, 1e-3))
	}
	poly, err := regression.FitPoly(xs, logYs, 2)
	if err != nil {
		return nil, err
	}
	fitted := make([]float64, len(xs))
	preds := make([]float64, len(xs))
	for i, x := range xs {
		preds[i] = poly.Eval(x)
		fitted[i] = math.Exp(preds[i])
	}
	return &Figure{
		ID:     "fig4",
		Title:  "Concave upward effect of MaxClients and regression fit (ordering, Level-1)",
		XLabel: "MaxClients",
		YLabel: "mean response time (s)",
		X:      xs,
		Series: []Series{
			{Label: "measured", Values: ys},
			{Label: "regression", Values: fitted},
		},
		Notes: []string{
			fmt.Sprintf("degree-2 fit of log(rt): %s", poly),
			fmt.Sprintf("R^2 (log space) = %.3f", regression.RSquared(logYs, preds)),
		},
	}, nil
}

// fig5Schedule is the context sequence of Figures 5 and 10: context-1 for a
// third of the run, then context-2 (traffic change), then context-3 (VM
// reallocation). It also returns the store over those contexts and the
// context-1 policy the adaptive agent starts from.
func (h *Harness) fig5Schedule() ([]Phase, *core.PolicyStore, *core.Policy, error) {
	var phases []Phase
	var ctxs []system.Context
	for _, name := range []string{"context-1", "context-2", "context-3"} {
		ctxs = append(ctxs, mustContext(name))
		phases = append(phases, Phase{Context: ctxs[len(ctxs)-1], Iterations: h.iterations(30)})
	}
	store, err := h.Store(ctxs...)
	if err != nil {
		return nil, nil, nil, err
	}
	initial, err := h.Policy(ctxs[0])
	return phases, store, initial, err
}

// Fig05 reproduces paper Figure 5: RAC (with adaptive policy initialization)
// versus the static default configuration and the trial-and-error tuner
// across three consecutive system contexts.
func (h *Harness) Fig05() (*Figure, error) {
	phases, store, initial, err := h.fig5Schedule()
	if err != nil {
		return nil, err
	}
	per := phases[0].Iterations
	fig := iterFigure("fig5", "Online performance of auto-configuration policies across context changes", 3*per)
	fig.Notes = []string{fmt.Sprintf("context-1 iters 1-%d, context-2 iters %d-%d, context-3 iters %d-%d",
		per, per+1, 2*per, 2*per+1, 3*per)}
	return fig, h.runSeries(fig, phases, 11,
		tunerRun{"RAC", h.agent(0x5AC, core.AgentOptions{Policy: initial, Store: store})},
		tunerRun{"static-default", func(sys system.System) (core.Tuner, error) {
			return core.NewStaticAgent(sys, h.opts.Agent)
		}},
		tunerRun{"trial-and-error", func(sys system.System) (core.Tuner, error) {
			return core.NewTrialAndErrorAgent(sys, h.opts.Agent)
		}},
	)
}

// Fig06 reproduces paper Figure 6: the effect of online learning. Both
// agents start from the context's offline policy; one keeps learning online,
// the other follows it greedily. The paper evaluates context-1; context-3 is
// added because the offline (analytic-surface) policy misfits the stressed
// simulator most there, which is exactly the gap online learning closes.
func (h *Harness) Fig06() (*Figure, error) {
	fig := iterFigure("fig6", "Effect of online training (contexts 1 and 3)", h.iterations(40))
	return fig, h.panels(fig, 23, []string{"context-1", "context-3"}, func(name string, p *core.Policy) []tunerRun {
		return []tunerRun{
			{name + "/with-online-learning", h.agent(0x6F6, core.AgentOptions{Policy: p})},
			{name + "/without-online-learning", h.agent(0x6F6, core.AgentOptions{Policy: p, Frozen: true})},
		}
	})
}

// Fig07 reproduces paper Figures 7(a) and 7(b): RAC with and without policy
// initialization under context-2 and context-4.
func (h *Harness) Fig07() (*Figure, error) {
	fig := iterFigure("fig7", "Performance with and without policy initialization", h.iterations(40))
	return fig, h.panels(fig, 31, []string{"context-2", "context-4"}, func(name string, p *core.Policy) []tunerRun {
		return []tunerRun{
			{name + "/with-init", h.agent(0x707, core.AgentOptions{Policy: p})},
			{name + "/without-init", h.agent(0x707, core.AgentOptions{})},
		}
	})
}

// Fig08 reproduces paper Figure 8: the effect of the online exploration
// rate (0.05, 0.1, 0.3) in context-1.
func (h *Harness) Fig08() (*Figure, error) {
	fig := iterFigure("fig8", "Effect of online exploration rate (context-1)", h.iterations(40))
	return fig, h.panels(fig, 41, []string{"context-1"}, func(_ string, p *core.Policy) []tunerRun {
		var runs []tunerRun
		for _, eps := range []float64{0.05, 0.1, 0.3} {
			o := h.opts.Agent
			o.Online.Epsilon = eps
			runs = append(runs, tunerRun{fmt.Sprintf("rate-%.2f", eps), h.agent(0x808, core.AgentOptions{Options: o, Policy: p})})
		}
		return runs
	})
}

// Fig09 reproduces paper Figures 9(a) and 9(b): a static initial policy
// (trained for context-2) versus the adaptive (context-matched) policy under
// context-5 and context-6.
func (h *Harness) Fig09() (*Figure, error) {
	staticPolicy, err := h.Policy(mustContext("context-2"))
	if err != nil {
		return nil, err
	}
	fig := iterFigure("fig9", "Static vs adaptive policy initialization", h.iterations(40))
	return fig, h.panels(fig, 47, []string{"context-5", "context-6"}, func(name string, p *core.Policy) []tunerRun {
		return []tunerRun{
			{name + "/adaptive-init", h.agent(0x909, core.AgentOptions{Policy: p})},
			{name + "/static-init", h.agent(0x909, core.AgentOptions{Policy: staticPolicy})},
		}
	})
}

// Fig10 reproduces paper Figure 10: adaptive initialization vs a fixed
// static policy vs no initialization under the Figure 5 context schedule.
func (h *Harness) Fig10() (*Figure, error) {
	phases, store, initial, err := h.fig5Schedule()
	if err != nil {
		return nil, err
	}
	staticPolicy, err := h.Policy(mustContext("context-2"))
	if err != nil {
		return nil, err
	}
	fig := iterFigure("fig10", "Online adaptation of RL policies under context changes", 3*phases[0].Iterations)
	return fig, h.runSeries(fig, phases, 53,
		tunerRun{"adaptive-init", h.agent(0xA0A, core.AgentOptions{Policy: initial, Store: store})},
		tunerRun{"static-init", h.agent(0xA0A, core.AgentOptions{Policy: staticPolicy})},
		tunerRun{"without-init", h.agent(0xA0A, core.AgentOptions{})},
	)
}

// mustContext returns a Table 2 context by name; the names are compile-time
// constants in this package, so failure is a programming error.
func mustContext(name string) system.Context {
	c, err := system.ContextByName(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Figures maps figure IDs to their generators.
func (h *Harness) Figures() map[string]func() (*Figure, error) {
	return map[string]func() (*Figure, error){
		"fig1":  h.Fig01,
		"fig2":  h.Fig02,
		"fig3":  h.Fig03,
		"fig4":  h.Fig04,
		"fig5":  h.Fig05,
		"fig6":  h.Fig06,
		"fig7":  h.Fig07,
		"fig8":  h.Fig08,
		"fig9":  h.Fig09,
		"fig10": h.Fig10,
		// Beyond the paper: the data-plane throughput/scaling figure. Not in
		// FigureIDs (and so not part of -all), because it drives real HTTP
		// load over wall clock instead of the simulator.
		"load": h.FigLoad,
		// Beyond the paper: adaptation across the library's 24 h diurnal
		// workload scenario. Not in FigureIDs for the same reason — the
		// paper has no time-varying-workload figure to reproduce.
		"diurnal": h.FigDiurnal,
		// Beyond the paper: the SLO admission gate under flash-crowd
		// overload, gated vs ungated. Not in FigureIDs — the paper has no
		// admission-control figure.
		"overload": h.FigOverload,
		// Beyond the paper: joint configuration + elastic capacity control
		// under the flash-crowd scenario, capacity-aware vs static peak. Not
		// in FigureIDs — the paper treats the VM level as an exogenous
		// context change, never as an actuator.
		"flashcrowd-capacity": h.FigFlashcrowdCapacity,
	}
}

// FigureIDs returns the figure identifiers in paper order.
func FigureIDs() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
}
