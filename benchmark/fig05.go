package main

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/rac-project/rac/internal/bench"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/stats"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// figure5 holds what fig05-sim sets up once: the harness, the policy store
// over the schedule's three contexts and the initial policy — the state
// Harness.Fig05 builds before it runs its agents.
type figure5 struct {
	e       *env
	h       *bench.Harness
	store   *core.PolicyStore
	initial *core.Policy
	phases  []bench.Phase
}

func fig05Setup(e *env) (*figure5, error) {
	h := bench.New(bench.Options{Seed: programSeed, Quick: e.sz.figQuick, Procs: e.procs})
	var ctxs []system.Context
	var phases []bench.Phase
	for _, name := range []string{"context-1", "context-2", "context-3"} {
		ctx, err := system.ContextByName(name)
		if err != nil {
			return nil, err
		}
		ctxs = append(ctxs, ctx)
		phases = append(phases, bench.Phase{Context: ctx, Iterations: e.sz.figIterations})
	}
	store, err := h.Store(ctxs...)
	if err != nil {
		return nil, fmt.Errorf("fig05-sim: policy store: %w", err)
	}
	initial, err := h.Policy(ctxs[0])
	if err != nil {
		return nil, fmt.Errorf("fig05-sim: initial policy: %w", err)
	}
	return &figure5{e: e, h: h, store: store, initial: initial, phases: phases}, nil
}

// schedule is one pass of an agent over the three context phases.
type schedule struct {
	results []core.StepResult
	steps   []unit
	hash    string
	meanRT  float64
	viol    int // steps with negative reward
	switche int // steps on which the agent switched its initial policy
	agent   *core.Agent
	tel     telemetry.Snapshot
}

// racSchedule drives the RAC agent through the schedule on the simulator,
// exactly as Harness.Fig05 does (same seeds, same salt), timing every step.
func (f *figure5) racSchedule(parent int64) (*schedule, error) {
	e := f.e
	tel := telemetry.NewRegistry()
	var cause atomic.Int64
	var tuner *timedTuner
	var agent *core.Agent
	results, err := f.h.RunSchedule(func(sys system.System) (core.Tuner, error) {
		if e.traced() {
			sys = traceSystem(sys, e.tr, &cause, "webtier.Measure")
		}
		a, err := core.NewAgent(sys, core.AgentOptions{
			Options:   core.DefaultOptions(),
			Policy:    f.initial,
			Store:     f.store,
			Seed:      programSeed ^ 0x5AC,
			Telemetry: tel,
		})
		if err != nil {
			return nil, err
		}
		agent = a
		tuner = &timedTuner{inner: a, tr: e.tr, parent: parent, cause: &cause}
		return tuner, nil
	}, f.phases, 11)
	if err != nil {
		return nil, fmt.Errorf("fig05-sim: RAC schedule: %w", err)
	}
	s := summarizeSchedule(results)
	s.steps, s.agent, s.tel = tuner.steps, agent, tel.Snapshot()
	return s, nil
}

// staticSchedule is the quality reference: the vendor-default configuration
// held through the same schedule on the same simulated system.
func (f *figure5) staticSchedule() (*schedule, error) {
	results, err := f.h.RunSchedule(func(sys system.System) (core.Tuner, error) {
		return core.NewStaticAgent(sys, core.DefaultOptions())
	}, f.phases, 11)
	if err != nil {
		return nil, fmt.Errorf("fig05-sim: static schedule: %w", err)
	}
	return summarizeSchedule(results), nil
}

func summarizeSchedule(results []core.StepResult) *schedule {
	s := &schedule{results: results}
	var buf bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&buf, "%d|%v|%s|%x|%x|%t|%s|%d\n", r.Iteration, r.Action, r.Config.Key(),
			math.Float64bits(r.MeanRT), math.Float64bits(r.Reward), r.Switched, r.PolicyName, r.Violations)
		s.meanRT += r.MeanRT
		if r.Reward < 0 {
			s.viol++
		}
		if r.Switched {
			s.switche++
		}
	}
	s.meanRT /= float64(len(results))
	s.hash = hashHex(buf.Bytes())
	return s
}

// checkQuality is the part of the correctness check every run can afford: the
// agent kept the site under its SLA on average and noticed the context
// changes.
func (s *schedule) checkQuality(e *env) error {
	if !e.sz.checkQuality {
		return nil
	}
	if s.meanRT >= slaSeconds {
		return fmt.Errorf("fig05-sim: RAC mean response time %.4f s is not under the %.0f s SLA", s.meanRT, slaSeconds)
	}
	if s.switche < 1 {
		return fmt.Errorf("fig05-sim: the agent never switched policy across two context changes")
	}
	return nil
}

func runFig05(e *env) (*report, error) {
	r := newReport("fig05-sim", e.traced())
	if e.traced() {
		return r, fig05Traced(e, r)
	}
	var f *figure5
	var s *schedule    // with f, what heap_live_mb holds
	var steps [][]unit // per repeat, per step
	var hashes []string
	var meanRT float64
	var viol, nSteps int
	n, err := e.alternate(r, func() (err error) {
		f, err = fig05Setup(e)
		return err
	}, func() (err error) {
		if s, err = f.racSchedule(0); err != nil {
			return err
		}
		steps, hashes = append(steps, s.steps), append(hashes, s.hash)
		meanRT, viol, nSteps = s.meanRT, s.viol, len(s.results)
		return s.checkQuality(e)
	}, func() { f, s = nil, nil })
	if err != nil {
		return nil, err
	}
	if !allEqual(hashes) {
		return nil, fmt.Errorf("fig05-sim: StepResult sequence differs between repeats")
	}
	r.check("StepResult sequence hash equal across %d repeats", n)
	if e.sz.checkQuality {
		r.check("RAC mean RT %.6f s under the SLA, at least one policy switch", meanRT)
	}

	r.Attempted = n * nSteps
	r.timings("step_ms", steps, 1)
	r.Metrics["rt_over_sla"] = meanRT / slaSeconds
	r.Metrics["slo_share"] = 1 - float64(viol)/float64(nSteps)
	return r, nil
}

func fig05Traced(e *env, r *report) error {
	f, err := fig05Setup(e)
	if err != nil {
		return err
	}
	spinMS := spin()
	root := e.tr.start(0, "schedule", "rac")
	s, err := f.racSchedule(root.id)
	wall := root.end()
	if err != nil {
		return err
	}
	if err := s.checkQuality(e); err != nil {
		return err
	}
	static, err := f.staticSchedule()
	if err != nil {
		return err
	}
	if e.sz.checkQuality && s.meanRT >= static.meanRT {
		return fmt.Errorf("fig05-sim: RAC mean RT %.4f s is not below the static default's %.4f s", s.meanRT, static.meanRT)
	}
	if e.sz.checkQuality {
		r.check("RAC mean RT %.6f s under the SLA and below the static default's %.6f s, %d policy switches", s.meanRT, static.meanRT, s.switche)
	}
	r.Attempted = len(s.results)

	agg := aggregate(e.tr.snapshot())
	step := statsOf(agg, "core.Agent.Step")
	apply := statsOf(agg, "system.Apply")
	measure := statsOf(agg, "webtier.Measure")
	steps := float64(step.count)
	m := r.Metrics
	m["core.step_us_p50"] = median(step.dursMS) * 1e3
	m["core.step_us_p90"] = stats.Quantile(step.dursMS, 0.9) * 1e3
	m["core.step_apply_us"] = float64(apply.total) / 1e3 / steps
	m["core.step_measure_us"] = float64(measure.total) / 1e3 / steps
	m["core.step_self_us"] = float64(step.self) / 1e3 / steps
	m["core.steps"] = counterTotal(s.tel, "rac_agent_steps_total")
	m["core.retrains"] = counterTotal(s.tel, "rac_agent_retrains_total")
	m["core.policy_switches"] = counterTotal(s.tel, "rac_agent_policy_switches_total")
	m["system.sim_measure_ms_p50"] = median(measure.dursMS)
	m["webtier.busy_share"] = float64(measure.total) / float64(wall)
	m["quality.mean_rt_s"] = s.meanRT
	m["quality.rt_vs_static"] = s.meanRT / static.meanRT
	m["quality.sla_violations"] = float64(s.viol)

	// What a checkpoint of this agent costs, after a full schedule of learning.
	var stateBytes int
	us, err := probe(e.sz.probeBudget, func() error {
		st, err := s.agent.ExportState()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			return err
		}
		stateBytes = buf.Len()
		return nil
	})
	if err != nil {
		return fmt.Errorf("fig05-sim: export state: %w", err)
	}
	m["core.export_state_us"] = us / 1e3
	m["core.export_state_bytes"] = float64(stateBytes)

	snap := f.h.Telemetry().Snapshot()
	hits, misses := counterTotal(snap, "rac_surface_cache_hits_total"), counterTotal(snap, "rac_surface_cache_misses_total")
	m["surface.hits"], m["surface.misses"] = hits, misses
	if hits+misses > 0 {
		m["surface.hit_ratio"] = hits / (hits + misses)
	}
	m["parallel.tasks"] = counterTotal(snap, "rac_parallel_tasks_total")
	m["parallel.queue_wait_s"], _ = histTotal(snap, "rac_parallel_queue_wait_seconds")
	m["benchmark.traced_op_ms"] = float64(wall) / 1e6
	m["benchmark.spin_ms"] = spinMS
	m["benchmark.span_coverage_share"] = float64(step.total) / float64(wall)
	return nil
}
