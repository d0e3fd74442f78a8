package bench

import (
	"context"
	"fmt"

	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/faults"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// FaultRun is one agent variant driven through a fault scenario.
type FaultRun struct {
	// Label names the variant ("resilient" or "baseline").
	Label string
	// Results holds one entry per completed step.
	Results []core.StepResult
	// Injected is the wrapper's fired-fault log for this run.
	Injected []faults.Injection
	// Trace is the run's decision trace: agent steps, injected faults and the
	// resilience layer's retries, rejections and rollbacks interleaved.
	Trace *telemetry.Trace
	// Violations counts intervals that were not served within the SLA: the
	// measured response time exceeded it, the interval was invalid or
	// degraded, or (after an abort) the interval never ran at all.
	Violations int
	// Aborted reports that a step error terminated the run early —
	// what a fault does to an agent with no resilience policy.
	Aborted        bool
	AbortIteration int
	AbortError     string
	// RecoveredAt is the first iteration after the last scheduled fault
	// window with a valid within-SLA measurement (0 = never).
	RecoveredAt int
}

// FaultComparison drives the resilient agent and the non-resilient baseline
// through the same scenario on identically seeded systems.
type FaultComparison struct {
	Scenario   faults.Scenario
	Iterations int
	Resilient  FaultRun
	Baseline   FaultRun
}

// RunFaultScenario runs both agent variants under the scenario. The run is
// sized so recovery after the final scheduled fault window is observable.
func (h *Harness) RunFaultScenario(sc faults.Scenario) (*FaultComparison, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	iters := sc.LastScheduled() + 8
	if min := h.iterations(45); iters < min {
		iters = min
	}
	cmp := &FaultComparison{Scenario: sc, Iterations: iters}
	for _, variant := range []struct {
		label string
		res   core.Resilience
	}{
		{"resilient", core.DefaultResilience()},
		{"baseline", core.Resilience{}},
	} {
		run, err := h.runFaultAgent(sc, variant.label, variant.res, iters)
		if err != nil {
			return nil, err
		}
		if variant.label == "resilient" {
			cmp.Resilient = run
		} else {
			cmp.Baseline = run
		}
	}
	return cmp, nil
}

// runFaultAgent drives one agent variant under the fault wrapper. A step
// error ends the run (recorded, not returned): surviving is exactly what the
// comparison measures.
func (h *Harness) runFaultAgent(sc faults.Scenario, label string, res core.Resilience, iters int) (FaultRun, error) {
	ctx, err := system.ContextByName("context-1")
	if err != nil {
		return FaultRun{}, err
	}
	policy, err := h.Policy(ctx)
	if err != nil {
		return FaultRun{}, err
	}
	base, err := h.newSystem(ctx, 31)
	if err != nil {
		return FaultRun{}, err
	}
	trace := telemetry.NewTrace(4096)
	wrapped, err := faults.New(base, faults.Options{
		Scenario:  sc,
		Seed:      h.opts.Seed,
		Telemetry: h.tel,
		Trace:     trace,
	})
	if err != nil {
		return FaultRun{}, err
	}
	o := h.opts.Agent
	o.Resilience = res
	agent, err := core.NewAgent(wrapped, core.AgentOptions{
		Options:   o,
		Policy:    policy,
		Seed:      h.opts.Seed ^ 0xFA17,
		Telemetry: h.tel,
		Trace:     trace,
	})
	if err != nil {
		return FaultRun{}, err
	}

	run := FaultRun{Label: label, Trace: trace}
	for i := 0; i < iters; i++ {
		sr, err := agent.Step(context.Background())
		if err != nil {
			run.Aborted = true
			run.AbortIteration = i + 1
			run.AbortError = err.Error()
			break
		}
		run.Results = append(run.Results, sr)
	}
	run.Injected = wrapped.Injected()

	sla := o.SLASeconds
	last := sc.LastScheduled()
	for i, sr := range run.Results {
		if violates(sr, sla) {
			run.Violations++
		} else if run.RecoveredAt == 0 && i+1 > last {
			run.RecoveredAt = i + 1
		}
	}
	// Intervals an aborted run never served violate by definition: the system
	// sat wherever the crash left it, untuned and unmeasured.
	run.Violations += iters - len(run.Results)
	return run, nil
}

// FigFaults renders a fault-recovery figure: response time per iteration for
// the resilient agent and the non-resilient baseline under the same injected
// fault schedule. An aborted run is padded flat at its last observed value so
// the series stay comparable.
func (h *Harness) FigFaults(sc faults.Scenario) (*Figure, error) {
	cmp, err := h.RunFaultScenario(sc)
	if err != nil {
		return nil, err
	}
	name := sc.Name
	if name == "" {
		name = "unnamed"
	}
	fig := &Figure{
		ID:     "fig-faults",
		Title:  fmt.Sprintf("Recovery under injected faults (scenario %q, context-1)", name),
		XLabel: "iteration",
		YLabel: "mean response time (s)",
		X:      seqX(cmp.Iterations),
		Notes: []string{
			fmt.Sprintf("SLA %gs; intervals violating it count against each agent", h.opts.Agent.SLASeconds),
		},
	}
	for _, run := range []FaultRun{cmp.Resilient, cmp.Baseline} {
		values := make([]float64, 0, cmp.Iterations)
		for _, sr := range run.Results {
			values = append(values, sr.MeanRT)
		}
		pad := h.opts.Agent.SLASeconds
		if n := len(values); n > 0 {
			pad = values[n-1]
		}
		for len(values) < cmp.Iterations {
			values = append(values, pad)
		}
		fig.Series = append(fig.Series, Series{Label: run.Label, Values: values})

		note := fmt.Sprintf("%s: %d/%d intervals violating, %d faults injected",
			run.Label, run.Violations, cmp.Iterations, len(run.Injected))
		if run.Aborted {
			note += fmt.Sprintf("; aborted at iteration %d (%s)", run.AbortIteration, run.AbortError)
		} else if run.RecoveredAt > 0 {
			note += fmt.Sprintf("; recovered at iteration %d", run.RecoveredAt)
		}
		fig.Notes = append(fig.Notes, note)
	}
	return fig, nil
}
