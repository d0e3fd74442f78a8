package bench

import (
	"fmt"

	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
	"github.com/rac-project/rac/internal/workload"
)

// Admission-gate caps for the gated variant of the overload figure: sized to
// the web tier's Table 1 defaults (MaxClients 150), with the epoch-adaptive
// loop steering the effective capacity between exploit and spread from the
// latency of the work it admitted and its own rejection rate.
const (
	overloadAdmitConcurrency = 40
	overloadAdmitQueue       = 20
	overloadAdmitEpoch       = 1000
)

// overloadRun is one variant of the overload comparison: per-interval
// SLO-goodput (completions within the SLA per second — rejections, timeouts
// and over-SLA completions never count) and p99 response time, plus the
// interval rejection counts. A jammed system can post a high raw throughput
// of 30-second responses; goodput is the number it cannot fake.
type overloadRun struct {
	Label    string
	Goodput  []float64
	P99      []float64
	Rejected []int
	Timeouts []int
}

// runOverloadVariant drives one webtier model through the scenario's
// intervals: apply the interval's population, settle, measure. The model is
// driven directly (no agent, no goroutines), so the series is a pure function
// of the seed — byte-identical at any -procs and across repeated runs.
func (h *Harness) runOverloadVariant(sc workload.Scenario, label string, params webtier.Params, epoch int) (overloadRun, error) {
	sched, err := workload.Compile(sc)
	if err != nil {
		return overloadRun{}, err
	}
	seq := workload.NewSequencer(sched, sc.Interval())
	first := seq.At(0)
	m, err := webtier.New(webtier.Options{
		Params:     &params,
		Workload:   first.Workload,
		AppLevel:   vmenv.Level1,
		Seed:       h.seed(61),
		AdmitEpoch: epoch,
		SLOSeconds: h.opts.Agent.SLASeconds,
	})
	if err != nil {
		return overloadRun{}, err
	}
	smp := scenarioSampling()
	run := overloadRun{Label: label}
	for i := 0; i < seq.Len(); i++ {
		iv := seq.At(i)
		if err := m.SetWorkload(iv.Workload); err != nil {
			return overloadRun{}, fmt.Errorf("bench: overload interval %d: %w", i, err)
		}
		m.Warmup(smp.settle)
		st, err := m.Run(smp.measure)
		if err != nil {
			return overloadRun{}, fmt.Errorf("bench: overload interval %d: %w", i, err)
		}
		goodput := 0.0
		if st.Interval > 0 {
			goodput = float64(st.GoodCompleted) / st.Interval
		}
		run.Goodput = append(run.Goodput, goodput)
		run.P99 = append(run.P99, st.P99RT)
		run.Rejected = append(run.Rejected, st.Rejected)
		run.Timeouts = append(run.Timeouts, st.Timeouts)
	}
	return run, nil
}

// FigOverload is the admission-gate figure (beyond the paper): the webtier
// model driven through the overload scenario twice — once with Table 1
// defaults (ungated), once with the SLO admission gate and its epoch-adaptive
// loop — comparing goodput and p99 response time interval by interval. Past
// the capacity knee the ungated system jams (goodput collapses, p99 runs
// away); the gated one sheds the excess with fast 503s and keeps serving.
func (h *Harness) FigOverload() (*Figure, error) {
	sc := h.scenarioFor(workload.Overload())

	ungatedParams := webtier.DefaultParams()
	gatedParams := webtier.DefaultParams()
	gatedParams.AdmitConcurrency = overloadAdmitConcurrency
	gatedParams.AdmitQueue = overloadAdmitQueue

	ungated, err := h.runOverloadVariant(sc, "ungated", ungatedParams, 0)
	if err != nil {
		return nil, err
	}
	gated, err := h.runOverloadVariant(sc, "gated", gatedParams, overloadAdmitEpoch)
	if err != nil {
		return nil, err
	}

	var totalRej int
	for _, r := range gated.Rejected {
		totalRej += r
	}
	fig := &Figure{
		ID:     "overload",
		Title:  "SLO admission gate under flash-crowd overload (scenario \"overload\", Level-1)",
		XLabel: "measurement interval",
		YLabel: fmt.Sprintf("goodput (completions ≤ %gs SLA, req/s) / p99 response time (s)", h.opts.Agent.SLASeconds),
		X:      seqX(len(ungated.Goodput)),
		Series: []Series{
			{Label: "gated/goodput", Values: gated.Goodput},
			{Label: "ungated/goodput", Values: ungated.Goodput},
			{Label: "gated/p99", Values: gated.P99},
			{Label: "ungated/p99", Values: ungated.P99},
		},
		Notes: []string{
			fmt.Sprintf("gate: AdmitConcurrency=%d AdmitQueue=%d, epoch-adaptive every %d requests",
				overloadAdmitConcurrency, overloadAdmitQueue, overloadAdmitEpoch),
			fmt.Sprintf("gated rejections across the run: %d (rejected != error != shed)", totalRej),
			fmt.Sprintf("gated timeouts: %v  ungated timeouts: %v", gated.Timeouts, ungated.Timeouts),
		},
	}
	return fig, nil
}
