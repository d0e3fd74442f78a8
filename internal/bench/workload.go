package bench

import (
	"context"
	"fmt"

	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/workload"
)

// ScenarioRun is one agent variant driven through a workload scenario.
type ScenarioRun struct {
	// Label names the variant ("rac-adaptive" or "static-default").
	Label string
	// Results holds one entry per measurement interval.
	Results []core.StepResult
	// Trace interleaves the run's per-interval workload events with the
	// agent's decisions, so load drift lines up with switches and rollbacks.
	Trace *telemetry.Trace
	// Violations counts intervals not served within the SLA (measured over
	// it, invalid, or degraded).
	Violations int
}

// ScenarioComparison drives the resilient adaptive agent and the
// static-default baseline through the same workload scenario on identically
// seeded systems.
type ScenarioComparison struct {
	Scenario  workload.Scenario
	Intervals []workload.Interval
	Adaptive  ScenarioRun
	Static    ScenarioRun
}

// scenarioFor returns the scenario sized to the harness fidelity: quick mode
// compresses every duration 3× (fewer intervals, same shape), mirroring
// iterations().
func (h *Harness) scenarioFor(sc workload.Scenario) workload.Scenario {
	if h.opts.Quick {
		return sc.Scale(1.0 / 3.0)
	}
	return sc
}

// RunWorkloadScenario runs both agent variants across the scenario on the
// simulated backend at Level-1. The driver walks the compiled schedule one
// measurement interval at a time, applying each interval's workload before
// the agent steps — the paper's operator changing traffic, scripted.
func (h *Harness) RunWorkloadScenario(sc workload.Scenario) (*ScenarioComparison, error) {
	sc = h.scenarioFor(sc)
	sched, err := workload.Compile(sc)
	if err != nil {
		return nil, err
	}
	probe := workload.NewSequencer(sched, sc.Interval())
	cmp := &ScenarioComparison{Scenario: sc}
	for i := 0; i < probe.Len(); i++ {
		cmp.Intervals = append(cmp.Intervals, probe.At(i))
	}

	for _, variant := range []struct {
		label    string
		adaptive bool
	}{
		{"rac-adaptive", true},
		{"static-default", false},
	} {
		run, err := h.runScenarioAgent(sched, sc.Interval(), variant.label, variant.adaptive)
		if err != nil {
			return nil, err
		}
		if variant.adaptive {
			cmp.Adaptive = run
		} else {
			cmp.Static = run
		}
	}
	return cmp, nil
}

// scenarioSampling returns the measurement windows scenario runs use in
// every fidelity mode, as a policy-training backend. Under a nonstationary
// schedule a long window averages across drift, so reconfiguration decisions
// are made from short windows; the full-mode scenario keeps the same windows
// and plays more intervals instead. The warm-start policies sample the
// simulator over the same windows, so Algorithm 2 ranks configurations in
// the regime the agent will actually measure.
func scenarioSampling() core.Sampling {
	return core.Sampling{Simulator: true, SettleSeconds: 15, MeasureSeconds: 60}
}

// scenarioStart returns a sequencer over the compiled scenario and a
// simulated Level-1 system in its first interval's workload, measured over
// the scenario windows.
func (h *Harness) scenarioStart(sched *workload.Schedule, interval float64, name string, salt uint64, slo float64) (*workload.Sequencer, *system.Simulated, error) {
	seq := workload.NewSequencer(sched, interval)
	seq.SetTelemetry(h.tel)
	ctx := system.Context{Name: name, Workload: seq.At(0).Workload, Level: vmenv.Level1}
	sys, err := h.simulated(ctx, h.seed(salt), scenarioSampling(), slo)
	return seq, sys, err
}

// scenarioAgent is the RAC agent every scenario bench runs, seeded from the
// harness seed and the bench's tag. It first applies
// the policy's recommended configuration (the paper's deployment: Algorithm
// 2 hands the operator a good initial configuration, and online learning
// refines it). Starting at the vendor default instead would cost one
// reconfiguration per interval to walk out of it — several SLA-violating
// intervals once a daytime plateau arrives.
func (h *Harness) scenarioAgent(sys system.System, tag uint64, ao core.AgentOptions) (*core.Agent, error) {
	rec, err := ao.Policy.Recommend()
	if err != nil {
		return nil, err
	}
	if err := sys.Apply(context.Background(), rec); err != nil {
		return nil, fmt.Errorf("bench: apply recommended config: %w", err)
	}
	ao.Options.Resilience = core.DefaultResilience()
	// Outlier rejection assumes a stationary workload: under a scenario
	// schedule a 6× response-time jump is the load shifting, not a bad
	// measurement, and rejecting it would blind the agent through every
	// phase transition. The other guards (retry, degraded-interval
	// rejection, rollback) stay on.
	ao.Options.Resilience.OutlierFactor = 0
	// Exploration is also dialed down: under stationary load a stray ε-step
	// costs one interval, but here a step taken just before a load shift is
	// learned under the old context's uniformly high rewards and can anchor
	// the agent in a region the plateau then punishes for several intervals.
	ao.Options.Online.Epsilon = 0.02
	ao.Seed = h.opts.Seed*0x9E3779B97F4A7C15 ^ tag
	ao.Telemetry = h.tel
	return core.NewAgent(sys, ao)
}

// driveScenario walks the sequencer one measurement interval at a time:
// apply the interval's workload, record it in the trace, step the tuner and
// hand the result to each — the paper's operator changing traffic,
// scripted.
func driveScenario(seq *workload.Sequencer, sys system.Adjustable, tuner core.Tuner, trace *telemetry.Trace, each func(core.StepResult) error) error {
	for i := 0; i < seq.Len(); i++ {
		iv := seq.Observe(i)
		if err := sys.SetWorkload(iv.Workload); err != nil {
			return fmt.Errorf("bench: interval %d workload: %w", i, err)
		}
		trace.Add(telemetry.Event{
			Kind:        telemetry.KindWorkload,
			Iteration:   i + 1,
			OfferedRate: iv.OfferedRate,
			Detail:      iv.PhaseName,
		})
		sr, err := tuner.Step(context.Background())
		if err != nil {
			return fmt.Errorf("bench: interval %d step: %w", i, err)
		}
		if err := each(sr); err != nil {
			return err
		}
	}
	return nil
}

// violates reports whether an interval was not served within the SLA: its
// response time exceeded it, or the interval was invalid or degraded.
func violates(sr core.StepResult, sla float64) bool {
	return sr.Invalid || sr.Degraded || sr.MeanRT > sla
}

// runScenarioAgent drives one variant across the schedule on its own
// sequencer and identically seeded system.
func (h *Harness) runScenarioAgent(sched *workload.Schedule, interval float64, label string, adaptive bool) (ScenarioRun, error) {
	seq, sys, err := h.scenarioStart(sched, interval, "scenario-start", 47, 0)
	if err != nil {
		return ScenarioRun{}, err
	}
	run := ScenarioRun{Label: label, Trace: telemetry.NewTrace(4096)}
	var tuner core.Tuner
	if adaptive {
		// A store over all three mixes at the scenario's level, so mix drift
		// can trip the paper's context-change detection and switch policies.
		// Scenario warm starts always sim-sample (paper Algorithm 2 coarsely
		// samples the system the agent will tune, and the schedule replays on
		// the simulator): near the capacity knee the analytic surface ranks
		// configurations by their steady-state queueing behavior, not by how
		// fast they drain the backlog a load shift leaves behind, and an
		// agent seeded with the wrong ranking spends the first plateau
		// intervals unlearning it one reconfiguration at a time.
		level := vmenv.Level1
		store, err := h.storeSampled(scenarioSampling(),
			contextWith(tpcw.Browsing, level),
			contextWith(tpcw.Shopping, level),
			contextWith(tpcw.Ordering, level),
		)
		if err != nil {
			return ScenarioRun{}, err
		}
		policy, err := h.policySampled(contextWith(seq.At(0).Workload.Mix, level), scenarioSampling())
		if err != nil {
			return ScenarioRun{}, err
		}
		tuner, err = h.scenarioAgent(sys, 0xD1A7, core.AgentOptions{
			Options: h.opts.Agent,
			Policy:  policy,
			Store:   store,
			Trace:   run.Trace,
		})
		if err != nil {
			return ScenarioRun{}, err
		}
	} else if tuner, err = core.NewStaticAgent(sys, h.opts.Agent); err != nil {
		return ScenarioRun{}, err
	}
	sla := h.opts.Agent.SLASeconds
	err = driveScenario(seq, sys, tuner, run.Trace, func(sr core.StepResult) error {
		run.Results = append(run.Results, sr)
		if violates(sr, sla) {
			run.Violations++
		}
		return nil
	})
	return run, err
}

// FigWorkload renders a scenario-adaptation figure: per-interval response
// time for the adaptive agent and the static baseline, with the offered load
// overlaid (normalized so its peak sits at the SLA line).
func (h *Harness) FigWorkload(sc workload.Scenario) (*Figure, error) {
	cmp, err := h.RunWorkloadScenario(sc)
	if err != nil {
		return nil, err
	}
	name := cmp.Scenario.Name
	if name == "" {
		name = "unnamed"
	}
	sla := h.opts.Agent.SLASeconds
	fig := &Figure{
		ID:     "fig-workload",
		Title:  fmt.Sprintf("Adaptation under time-varying workload (scenario %q, Level-1)", name),
		XLabel: "measurement interval",
		YLabel: "mean response time (s)",
		X:      seqX(len(cmp.Intervals)),
		Notes: []string{
			fmt.Sprintf("SLA %gs; intervals violating it count against each agent", sla),
		},
	}
	for _, run := range []ScenarioRun{cmp.Adaptive, cmp.Static} {
		fig.Series = append(fig.Series, Series{Label: run.Label, Values: rtSeries(run.Results)})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %d/%d intervals violating",
			run.Label, run.Violations, len(run.Results)))
	}

	var peak float64
	for _, iv := range cmp.Intervals {
		if iv.OfferedRate > peak {
			peak = iv.OfferedRate
		}
	}
	if peak > 0 {
		load := Series{Label: "offered-load"}
		for _, iv := range cmp.Intervals {
			load.Values = append(load.Values, iv.OfferedRate/peak*sla)
		}
		fig.Series = append(fig.Series, load)
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("offered-load normalized: peak %.1f req/s drawn at the %gs SLA line", peak, sla))
	}
	if last := len(cmp.Intervals) - 1; last >= 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf("phases: %s → %s",
			cmp.Intervals[0].PhaseName, cmp.Intervals[last].PhaseName))
	}
	return fig, nil
}

// FigDiurnal renders FigWorkload for the library's compressed 24 h diurnal
// scenario — daily sinusoid, afternoon flash crowd, evening mix drift — the
// acceptance experiment for the workload engine: the resilient adaptive
// agent must violate the SLA in at most half the intervals the static
// baseline does.
func (h *Harness) FigDiurnal() (*Figure, error) {
	fig, err := h.FigWorkload(workload.Diurnal())
	if err != nil {
		return nil, err
	}
	fig.ID = "fig-diurnal"
	return fig, nil
}
