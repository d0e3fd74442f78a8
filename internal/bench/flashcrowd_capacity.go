package bench

import (
	"fmt"

	"github.com/rac-project/rac/internal/capacity"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/workload"
)

// Calibration for the flash-crowd capacity figure.
const (
	// capacityFigCost prices one VM-level·interval in the agent's reward
	// (core.Options.CapacityCost): high enough that idling at the peak level
	// costs more reward than the paper's typical sub-SLA response-time gains,
	// low enough that scaling up out of saturation always pays for itself.
	capacityFigCost = 0.05
	// capacityFigInitial is the capacity-aware variant's starting ordinal:
	// the middle tier (Level-2), leaving the fast path one step of headroom
	// in each direction.
	capacityFigInitial = 2
)

// capacityAnalyzerConfig is the saturation-analyzer calibration for scenario
// runs. Quick mode compresses the flash crowd to ~5 intervals, so the figure
// uses a two-interval window and one-interval cooldown in every fidelity mode
// — the default three-plus-two calibration would sleep through the compressed
// spike — and full mode simply plays more windows of the same shape.
func (h *Harness) capacityAnalyzerConfig() capacity.Config {
	cfg := capacity.DefaultConfig(h.opts.Agent.SLASeconds)
	cfg.Window = 2
	cfg.Cooldown = 1
	return cfg
}

// capacityProvisionDelay is how many intervals a scale-up takes to come
// online. Quick mode applies scale-ups on the next interval boundary: with
// only ~2 elevated intervals, a one-interval boot would leave the bigger VM
// arriving as the crowd departs.
func (h *Harness) capacityProvisionDelay() int {
	if h.opts.Quick {
		return 0
	}
	return 1
}

// capacityRun is one variant of the flash-crowd capacity comparison:
// per-interval SLO-goodput, p99 response time and the cumulative capacity
// bill, plus the scale activity behind them.
type capacityRun struct {
	Label      string
	Goodput    []float64
	P99        []float64
	Cost       []float64 // cumulative, VM-level·intervals
	ScaleUps   int
	ScaleDowns int
	Violations int
}

// runCapacityVariant drives one variant through the flash-crowd schedule on
// its own identically seeded simulated backend wrapped in the capacity
// decorator.
//
// The adaptive variant is the full joint controller: the RAC agent tunes the
// software knobs while the decorator's fast path scales the VM level from
// saturation verdicts, starting at the mid-tier Level-2. Each applied scale
// reports through OnScale and the driver adopts the policy trained for the
// new level on the next step — the SQLR-style per-level policy memory, so a
// scale-back warm-starts from what that level already learned instead of
// re-exploring.
//
// The baseline is the paper's trial-and-error administrator pinned at the
// static peak (Level-1): provisioned for the crowd the whole run, paying
// vmenv.MaxOrdinal every interval, with the fast path off.
func (h *Harness) runCapacityVariant(sc workload.Scenario, label string, adaptive bool) (capacityRun, error) {
	sched, err := workload.Compile(sc)
	if err != nil {
		return capacityRun{}, err
	}
	sla := h.opts.Agent.SLASeconds
	seq, inner, err := h.scenarioStart(sched, sc.Interval(), "flashcrowd-start", 67, sla)
	if err != nil {
		return capacityRun{}, err
	}

	trace := telemetry.NewTrace(4096)
	initial := vmenv.MaxOrdinal
	if adaptive {
		initial = capacityFigInitial
	}
	// pendingLevel carries an applied scale from the decorator's OnScale hook
	// (which fires mid-Measure, inside the agent's own Step) out to the drive
	// loop, which adopts the per-level policy between steps — never while the
	// agent is mid-iteration.
	var pendingLevel int
	opts := capacity.Options{
		Initial:        initial,
		ProvisionDelay: h.capacityProvisionDelay(),
		Analyzer:       h.capacityAnalyzerConfig(),
		FastPath:       adaptive,
		Trace:          trace,
	}
	if adaptive {
		opts.OnScale = func(_, newOrdinal int) { pendingLevel = newOrdinal }
	}
	sys, err := capacity.Wrap(inner, opts)
	if err != nil {
		return capacityRun{}, err
	}

	levelPolicy := func(ordinal int) (*core.Policy, error) {
		lvl, err := vmenv.ByOrdinal(ordinal)
		if err != nil {
			return nil, err
		}
		return h.policySampled(contextWith(tpcw.Shopping, lvl), scenarioSampling())
	}

	o := h.opts.Agent
	// Both variants price capacity identically, so their rewards stay
	// comparable: the baseline's reward carries the peak-level bill it never
	// stops paying.
	o.CapacityCost = capacityFigCost
	var (
		tuner core.Tuner
		agent *core.Agent
	)
	if adaptive {
		policy, err := levelPolicy(initial)
		if err != nil {
			return capacityRun{}, err
		}
		agent, err = h.scenarioAgent(sys, 0xCAB, core.AgentOptions{Options: o, Policy: policy, Trace: trace})
		if err != nil {
			return capacityRun{}, err
		}
		tuner = agent
	} else if tuner, err = core.NewTrialAndErrorAgent(sys, o); err != nil {
		return capacityRun{}, err
	}

	run := capacityRun{Label: label}
	err = driveScenario(seq, sys, tuner, trace, func(sr core.StepResult) error {
		if agent != nil && pendingLevel != 0 {
			p, err := levelPolicy(pendingLevel)
			if err != nil {
				return err
			}
			agent.ForcePolicy(p)
			pendingLevel = 0
		}
		run.Goodput = append(run.Goodput, sr.Goodput)
		run.P99 = append(run.P99, sr.P99RT)
		run.Cost = append(run.Cost, float64(sys.TotalCost()))
		if violates(sr, sla) {
			run.Violations++
		}
		return nil
	})
	run.ScaleUps = sys.ScaleUps()
	run.ScaleDowns = sys.ScaleDowns()
	return run, err
}

// FigFlashcrowdCapacity is the capacity-control figure (beyond the paper):
// the flash-crowd scenario driven twice through the capacity decorator — the
// joint configuration+capacity controller starting at mid-tier Level-2, and
// the trial-and-error administrator statically provisioned at the Level-1
// peak — comparing SLO-goodput, p99 response time and the cumulative
// capacity bill interval by interval. The claim: riding the saturation
// analyzer up for the spike and back down after costs less than owning the
// peak, without giving up goodput or tail latency.
func (h *Harness) FigFlashcrowdCapacity() (*Figure, error) {
	sc := h.scenarioFor(workload.FlashCrowd())
	capAware, err := h.runCapacityVariant(sc, "capacity-aware", true)
	if err != nil {
		return nil, err
	}
	baseline, err := h.runCapacityVariant(sc, "static-peak", false)
	if err != nil {
		return nil, err
	}

	n := len(capAware.Goodput)
	fig := &Figure{
		ID:     "flashcrowd-capacity",
		Title:  "Joint configuration + elastic capacity control under a flash crowd (scenario \"flashcrowd\")",
		XLabel: "measurement interval",
		YLabel: fmt.Sprintf("goodput (completions ≤ %gs SLA, req/s) / p99 (s) / cumulative capacity cost (VM-level·intervals)", h.opts.Agent.SLASeconds),
		X:      seqX(n),
		Series: []Series{
			{Label: "capacity-aware/goodput", Values: capAware.Goodput},
			{Label: "static-peak/goodput", Values: baseline.Goodput},
			{Label: "capacity-aware/p99", Values: capAware.P99},
			{Label: "static-peak/p99", Values: baseline.P99},
			{Label: "capacity-aware/cost", Values: capAware.Cost},
			{Label: "static-peak/cost", Values: baseline.Cost},
		},
		Notes: []string{
			fmt.Sprintf("capacity-aware: RAC agent + fast scale path from ordinal %d, analyzer window=%d cooldown=%d, provision delay %d interval(s), reward capacity price %g/level·interval",
				capacityFigInitial, h.capacityAnalyzerConfig().Window, h.capacityAnalyzerConfig().Cooldown, h.capacityProvisionDelay(), capacityFigCost),
			fmt.Sprintf("static-peak: trial-and-error tuner pinned at Level-1 (ordinal %d) for the whole run", vmenv.MaxOrdinal),
			fmt.Sprintf("capacity-aware scale-ups=%d scale-downs=%d; total cost %.0f vs static peak %.0f",
				capAware.ScaleUps, capAware.ScaleDowns, capAware.Cost[n-1], baseline.Cost[n-1]),
			fmt.Sprintf("SLA violations: capacity-aware %d/%d, static-peak %d/%d",
				capAware.Violations, n, baseline.Violations, n),
		},
	}
	return fig, nil
}
