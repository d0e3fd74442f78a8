package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/stats"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
)

// StepResult reports one trial-and-error iteration of an agent.
type StepResult struct {
	// Iteration counts steps from 1.
	Iteration int
	// Action is the reconfiguration taken this step (Keep for agents that
	// did not move).
	Action config.Action
	// Config is the configuration measured this step.
	Config config.Config
	// MeanRT is the measured mean response time in seconds.
	MeanRT float64
	// P99RT is the measured 99th-percentile response time in seconds (0 when
	// the system does not track it).
	P99RT float64
	// Throughput is the measured completion rate in requests/second.
	Throughput float64
	// Goodput is the measured SLO-goodput in requests/second (0 when the
	// system has no SLO threshold configured).
	Goodput float64
	// Reward is the immediate reward SLA − MeanRT.
	Reward float64
	// Level names the VM provisioning level in effect during the step's
	// interval (empty when untracked) and CapacityUnits its capacity cost in
	// VM-level units — see system.Metrics.
	Level         string
	CapacityUnits int
	// Switched reports that the agent detected a context change and swapped
	// its initial policy this step.
	Switched bool
	// PolicyName is the active initial policy, if any.
	PolicyName string
	// Violations is the current consecutive-violation count.
	Violations int
	// Attempts is the largest Apply/Measure try count the step needed (1 on a
	// clean step; higher when transient faults were retried).
	Attempts int
	// Invalid reports that the measurement was discarded instead of learned
	// from; InvalidReason says why (e.g. "error-ratio", "outlier", "no-data").
	Invalid       bool
	InvalidReason string
	// Degraded reports that no measurement was obtained at all and MeanRT is
	// the last believable value carried forward.
	Degraded bool
	// RolledBack reports that the SLA safety guard re-applied the
	// last-known-good configuration at the end of this step.
	RolledBack bool
}

// measuredStep starts the result of a step that measured m under cfg: every
// measured field copied from m and the reward priced by RewardOf, so no tuner
// reports less of the interval than another.
func (o Options) measuredStep(iteration int, action config.Action, cfg config.Config, m system.Metrics) StepResult {
	return StepResult{
		Iteration:     iteration,
		Action:        action,
		Config:        cfg,
		MeanRT:        m.MeanRT,
		P99RT:         m.P99RT,
		Throughput:    m.Throughput,
		Goodput:       m.Goodput,
		Reward:        o.RewardOf(m),
		Level:         m.Level,
		CapacityUnits: m.CapacityUnits,
	}
}

// Tuner is a configuration agent driven in discrete iterations. All agents
// in this package (RAC, static default, trial-and-error, hill climbing)
// implement it, so the experiment harness runs them interchangeably.
type Tuner interface {
	// Step measures one interval, possibly reconfiguring first, and reports
	// the outcome. Canceling ctx aborts the in-flight Apply/Measure and
	// returns the context's error; the aborted interval is never learned
	// from and never retried.
	Step(ctx context.Context) (StepResult, error)
}

// Agent is the RAC online agent (paper Algorithm 3): ε-greedy actions from a
// Q-table seeded by an initial policy, per-interval batch retraining over the
// measured region, and context-change detection with policy switching.
type Agent struct {
	sys     system.System
	space   *config.Space
	opts    Options
	actions []config.Action
	rng     *sim.RNG

	// explore is the ε-greedy choice's stream, split from rng whenever the
	// Q-table is reset (checkpoints call it the learner's stream).
	explore *sim.RNG
	policy  *Policy
	store   *PolicyStore
	frozen  bool

	cur        config.Config
	window     *stats.Window
	violations int
	iteration  int

	// region is the agent's Q-table and sample table: the retraining region,
	// grown in place as states are first measured, with the rows the agent
	// holds outside it. A state it holds no row for reads as the policy's
	// seeded row, or zero without a policy. It is nil until the agent first
	// holds a row (regionFor), so an agent that never learns holds none.
	region *region
	// row is the buffer a read derives a row into — the region's held row
	// or the policy's seeded one (Policy.SeedRow), never both at once — so
	// reading one allocates nothing.
	row []float64

	// Resilience state: the last configuration that satisfied the SLA, the
	// last believable response time (carried into degraded intervals), and
	// how many consecutive intervals violated the SLA or yielded no data.
	lastGood  config.Config
	lastRT    float64
	slaStreak int
	sleep     func(time.Duration) // nil = never block (simulated time)

	tel   *agentInstruments
	trace *telemetry.Trace
}

// agentInstruments are the agent's registry metrics; nil when telemetry is
// not wired.
type agentInstruments struct {
	steps      *telemetry.Counter
	switches   *telemetry.Counter
	reselects  *telemetry.Counter
	retrains   *telemetry.Counter
	retries    *telemetry.Counter
	rollbacks  *telemetry.Counter
	invalids   *telemetry.Counter
	degradeds  *telemetry.Counter
	epsilon    *telemetry.Gauge
	violations *telemetry.Gauge
	reward     *telemetry.Gauge
	qDelta     *telemetry.Gauge
}

// newAgentInstruments registers the agent's instruments on reg.
func newAgentInstruments(reg *telemetry.Registry) *agentInstruments {
	return &agentInstruments{
		steps: reg.Counter("rac_agent_steps_total",
			"Tuning iterations the agent has run (paper Algorithm 3).", nil),
		switches: reg.Counter("rac_agent_policy_switches_total",
			"Initial-policy switches: context changes detected after s_thr consecutive violations, plus forced switches.", nil),
		reselects: reg.Counter("rac_agent_policy_reselections_total",
			"Detected context changes for which the policy store matched the active policy again (each also counts as a switch).", nil),
		retrains: reg.Counter("rac_agent_retrains_total",
			"Per-interval batch Q-table retraining passes.", nil),
		retries: reg.Counter("rac_agent_retries_total",
			"Transient Apply/Measure failures retried by the resilience policy.", nil),
		rollbacks: reg.Counter("rac_agent_rollbacks_total",
			"SLA safety-guard rollbacks to the last-known-good configuration.", nil),
		invalids: reg.Counter("rac_agent_invalid_intervals_total",
			"Measurement intervals discarded instead of learned from.", nil),
		degradeds: reg.Counter("rac_agent_degraded_intervals_total",
			"Intervals that yielded no measurement at all after retries.", nil),
		epsilon: reg.Gauge("rac_agent_epsilon",
			"Exploration rate in force for online action selection.", nil),
		violations: reg.Gauge("rac_agent_consecutive_violations",
			"Current consecutive SLA-deviation count feeding context-change detection.", nil),
		reward: reg.Gauge("rac_agent_last_reward",
			"Immediate reward of the most recent step (SLA − meanRT).", nil),
		qDelta: reg.Gauge("rac_agent_last_q_delta",
			"Change of the visited state's best Q-value across the last retrain.", nil),
	}
}

var _ Tuner = (*Agent)(nil)

// AgentOptions configure NewAgent.
type AgentOptions struct {
	// Options are the hyper-parameters; zero value uses DefaultOptions.
	Options Options
	// Policy is the initial policy (nil = no initialization: the agent
	// starts from a zero Q-table, paper §5.4's "w/o init" configuration).
	Policy *Policy
	// Store enables adaptive policy switching on context changes (nil =
	// static initialization: the agent keeps its initial policy, §5.4's
	// "static init").
	Store *PolicyStore
	// Frozen disables online learning (paper §5.3 "w/o online learning"):
	// the agent follows the initial policy greedily and never retrains.
	Frozen bool
	// Seed drives exploration.
	Seed uint64
	// Telemetry, when non-nil, receives the agent's step/retrain/policy-
	// switch counters and gauges. Sharing the live server's registry puts
	// them on the same /metrics page as the request histograms.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives one structured decision event per step,
	// retrain and policy switch (exposed by the live server's /admin/trace).
	Trace *telemetry.Trace
	// Sleep, when non-nil, blocks between retry attempts for
	// Resilience.RetryBackoff-driven pacing (live runs pass time.Sleep).
	// Nil keeps retries instantaneous — right for simulated time.
	Sleep func(time.Duration)
}

// NewAgent builds a RAC agent tuning the given system.
func NewAgent(sys system.System, opts AgentOptions) (*Agent, error) {
	if sys == nil {
		return nil, errors.New("core: nil system")
	}
	o := opts.Options
	if o == (Options{}) {
		o = DefaultOptions()
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	space := sys.Space()
	if opts.Policy != nil && opts.Policy.Space() != space {
		// Policies must be trained on the same space object to guarantee
		// identical action ordering.
		if opts.Policy.Space().Len() != space.Len() {
			return nil, fmt.Errorf("core: policy space has %d parameters, system %d",
				opts.Policy.Space().Len(), space.Len())
		}
	}
	rng := sim.NewRNG(opts.Seed | 1)
	actions := config.Actions(space)
	if opts.Frozen {
		o.Online.Epsilon = 0
	}
	a := &Agent{
		sys:     sys,
		space:   space,
		opts:    o,
		actions: actions,
		row:     make([]float64, len(actions)),
		rng:     rng,
		policy:  opts.Policy,
		store:   opts.Store,
		frozen:  opts.Frozen,
		cur:     sys.Config(),
		window:  stats.NewWindow(o.Window),
		sleep:   opts.Sleep,
		trace:   opts.Trace,
	}
	if opts.Telemetry != nil {
		a.tel = newAgentInstruments(opts.Telemetry)
		a.tel.epsilon.Set(o.Online.Epsilon)
	}
	a.resetQ()
	return a, nil
}

// resetQ starts a fresh Q-table and sample table seeded by the active policy,
// with a new exploration stream split from the agent's.
func (a *Agent) resetQ() {
	a.region = nil
	a.explore = a.rng.Split()
}

// regionFor returns the agent's region, creating it empty if need be.
func (a *Agent) regionFor() *region {
	if a.region == nil {
		a.region = newRegion(a.space, a.actions, a.policy, a.opts.SLASeconds, a.row)
	}
	return a.region
}

// Policy returns the active initial policy (nil when uninitialized).
func (a *Agent) Policy() *Policy { return a.policy }

// Config returns the agent's current configuration.
func (a *Agent) Config() config.Config { return a.cur.Clone() }

// Step performs one iteration of Algorithm 3: issue a reconfiguration action
// from the current Q-table, measure, detect context changes (switching the
// initial policy after s_thr consecutive violations), then retrain the
// Q-table in batch over the measured region.
//
// When Options.Resilience is enabled, the step additionally survives the
// failures a live system throws at it: transient Apply/Measure errors are
// retried with bounded backoff (an exhausted Apply holds the current
// configuration, an exhausted Measure degrades the interval instead of
// aborting the run), measurements failing the resilience policy's validity
// checks are reported but not learned from, and after RollbackAfter
// consecutive bad intervals the agent re-applies the last configuration that
// satisfied the SLA.
func (a *Agent) Step(ctx context.Context) (StepResult, error) {
	a.iteration++
	r := a.opts.Resilience

	// 1. Issue a reconfiguration action (ε-greedy over feasible actions).
	action := a.actions[a.choose(a.cur)]
	next, _ := action.Apply(a.space, a.cur)
	applyTries, err := a.attempt(ctx, "apply", next, func() error { return a.sys.Apply(ctx, next) })
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return StepResult{}, cerr
		}
		if !r.enabled() || !system.IsTransient(err) {
			return StepResult{}, fmt.Errorf("core: apply %s: %w", next.Key(), err)
		}
		// Out of attempts on a transient failure: hold the current
		// configuration this interval instead of aborting the run.
		action = config.Action{Dir: config.Keep}
		next = a.cur.Clone()
	}

	// 2. Measure the new configuration.
	var m system.Metrics
	measureTries, merr := a.attempt(ctx, "measure", next, func() error {
		var e error
		m, e = a.sys.Measure(ctx)
		return e
	})
	attempts := applyTries
	if measureTries > attempts {
		attempts = measureTries
	}
	if merr != nil {
		if err := ctx.Err(); err != nil {
			// A canceled step is the caller draining, not a flaky interval:
			// surface the cancellation itself, undecorated and unlearned.
			return StepResult{}, err
		}
		if !r.enabled() || !system.IsTransient(merr) {
			return StepResult{}, fmt.Errorf("core: measure: %w", merr)
		}
		return a.degradedStep(ctx, next, action, attempts, merr), nil
	}

	res := a.opts.measuredStep(a.iteration, action, next.Clone(), m)
	res.Attempts = attempts
	rt, reward := res.MeanRT, res.Reward

	// Resilience: an interval failing the validity checks is reported but not
	// learned from — no window update, no context detection, no retraining.
	if r.enabled() {
		if reason, bad := r.Invalidates(m, a.window.Mean(), a.window.Len() >= 3); bad {
			res.Invalid = true
			res.InvalidReason = reason
			return a.finishInvalid(ctx, res, next), nil
		}
	}
	ord := a.space.Ordinal(next)

	// 3. Context-change detection against the recent average.
	if a.window.Len() >= 3 {
		pvar := stats.RelChange(rt, a.window.Mean())
		if pvar >= a.opts.ViolationThreshold {
			a.violations++
		} else {
			a.violations = 0
		}
	}
	a.window.Add(rt)
	res.Violations = a.violations

	// 4. Policy switching.
	if a.violations >= a.opts.SwitchThreshold && a.store != nil && a.store.Len() > 0 {
		if p, err := a.store.Match(next, rt); err == nil && p != nil {
			if a.tel != nil && p == a.policy {
				a.tel.reselects.Inc()
			}
			a.switchPolicy(p, telemetry.Event{State: a.traceKey(next), MeanRT: rt})
			res.Switched = true
		}
	}
	if a.policy != nil {
		res.PolicyName = a.policy.Name()
	}

	if a.tel != nil {
		a.tel.steps.Inc()
		a.tel.epsilon.Set(a.opts.Online.Epsilon)
		a.tel.violations.Set(float64(a.violations))
		a.tel.reward.Set(reward)
	}

	// 5. Record the measurement and retrain the Q-table over the region
	// (skipped entirely when online learning is disabled).
	var qDelta float64
	if !a.frozen {
		if qDelta, err = a.learn(ord, next, rt); err != nil {
			return StepResult{}, err
		}
	}
	if a.trace != nil {
		a.trace.Add(telemetry.Event{
			Kind:       telemetry.KindStep,
			Iteration:  a.iteration,
			State:      next.Key(),
			Action:     action.Describe(a.space),
			MeanRT:     rt,
			Reward:     reward,
			Epsilon:    a.opts.Online.Epsilon,
			Violations: a.violations,
			Policy:     res.PolicyName,
			Level:      m.Level,
			QDelta:     qDelta,
		})
	}

	a.cur = next

	// 6. SLA bookkeeping and the rollback safety guard.
	if r.enabled() {
		if reward >= 0 {
			a.lastGood = next.Clone()
			a.lastRT = rt
			a.slaStreak = 0
		} else {
			a.lastRT = rt
			a.slaStreak++
		}
		a.maybeRollback(ctx, &res)
	}
	return res, nil
}

// attempt runs fn under the resilience policy's bounded retry, returning how
// many tries it took and the final error. With resilience disabled (or
// MaxAttempts 1) fn runs exactly once, preserving the pre-resilience step
// byte for byte. Only transient failures are retried — and never once ctx is
// canceled, so a drain is not mistaken for a flaky system. state, the
// configuration fn acts on, labels a retry's trace event and is rendered only
// then.
func (a *Agent) attempt(ctx context.Context, op string, state config.Config, fn func() error) (int, error) {
	maxTries := a.opts.Resilience.MaxAttempts
	if maxTries < 1 {
		maxTries = 1
	}
	backoff := a.opts.Resilience.RetryBackoff
	for tries := 1; ; tries++ {
		err := fn()
		if err == nil {
			return tries, nil
		}
		if tries >= maxTries || !system.IsTransient(err) || ctx.Err() != nil {
			return tries, err
		}
		if a.tel != nil {
			a.tel.retries.Inc()
		}
		if a.trace != nil {
			a.trace.Add(telemetry.Event{
				Kind:      telemetry.KindRetry,
				Iteration: a.iteration,
				State:     state.Key(),
				Attempts:  tries,
				Detail:    op + ": " + err.Error(),
			})
		}
		if a.sleep != nil && backoff > 0 {
			a.sleep(backoff)
			backoff *= 2
		}
	}
}

// finishInvalid completes a step whose measurement was rejected: the raw
// values are reported for figures, nothing is learned, and the bad interval
// feeds the rollback streak.
func (a *Agent) finishInvalid(ctx context.Context, res StepResult, next config.Config) StepResult {
	res.Violations = a.violations
	if a.policy != nil {
		res.PolicyName = a.policy.Name()
	}
	if a.tel != nil {
		a.tel.steps.Inc()
		a.tel.invalids.Inc()
		a.tel.reward.Set(res.Reward)
	}
	if a.trace != nil && !res.Degraded { // degradedStep already traced its cause
		a.trace.Add(telemetry.Event{
			Kind:      telemetry.KindInvalid,
			Iteration: a.iteration,
			State:     next.Key(),
			MeanRT:    res.MeanRT,
			Detail:    res.InvalidReason,
		})
	}
	a.cur = next
	a.slaStreak++
	a.maybeRollback(ctx, &res)
	return res
}

// degradedStep completes a step that obtained no measurement at all: the last
// believable response time is carried forward, marked invalid so nothing
// downstream learns from it.
func (a *Agent) degradedStep(ctx context.Context, next config.Config, action config.Action, attempts int, cause error) StepResult {
	rt := a.lastRT
	if rt == 0 {
		rt = a.opts.SLASeconds // no history yet: a neutral, zero-reward guess
	}
	res := StepResult{
		Iteration:     a.iteration,
		Action:        action,
		Config:        next.Clone(),
		MeanRT:        rt,
		Reward:        a.opts.Reward(rt),
		Attempts:      attempts,
		Invalid:       true,
		InvalidReason: "no-data",
		Degraded:      true,
	}
	if a.tel != nil {
		a.tel.degradeds.Inc()
	}
	if a.trace != nil {
		a.trace.Add(telemetry.Event{
			Kind:      telemetry.KindInvalid,
			Iteration: a.iteration,
			State:     next.Key(),
			Attempts:  attempts,
			Detail:    "no-data: " + cause.Error(),
		})
	}
	return a.finishInvalid(ctx, res, next)
}

// maybeRollback re-applies the last-known-good configuration once the
// consecutive bad-interval streak reaches the policy threshold. A transient
// failure of the rollback itself leaves the streak in place, so the guard
// tries again next step.
func (a *Agent) maybeRollback(ctx context.Context, res *StepResult) {
	r := a.opts.Resilience
	if r.RollbackAfter <= 0 || a.slaStreak < r.RollbackAfter || a.lastGood == nil {
		return
	}
	if a.lastGood.Equal(a.cur) {
		return // already at the safest known point
	}
	if _, err := a.attempt(ctx, "rollback", a.lastGood, func() error { return a.sys.Apply(ctx, a.lastGood) }); err != nil {
		return
	}
	a.cur = a.lastGood.Clone()
	a.slaStreak = 0
	res.RolledBack = true
	if a.tel != nil {
		a.tel.rollbacks.Inc()
	}
	if a.trace != nil {
		a.trace.Add(telemetry.Event{
			Kind:      telemetry.KindRollback,
			Iteration: a.iteration,
			State:     a.cur.Key(),
			Detail:    "reverted to last configuration satisfying the SLA",
		})
	}
}

// traceKey renders cfg's key for a trace event, or "" when nothing is traced.
func (a *Agent) traceKey(cfg config.Config) string {
	if a.trace == nil {
		return ""
	}
	return cfg.Key()
}

// choose picks the action to take at cfg: ε-greedy over the feasible
// actions, drawing from the exploration stream exactly as mdp.Learner's
// SelectAction does, the greedy branch reading the row the agent holds for
// cfg — or the one the policy seeds, which it does not keep. Without a policy
// the agent holds a zero row from then on, as a Q-table that materializes on
// read would.
func (a *Agent) choose(cfg config.Config) int {
	n := 0
	for _, act := range a.actions {
		if act.Feasible(a.space, cfg) {
			n++
		}
	}
	if a.explore.Float64() < a.opts.Online.Epsilon {
		k := a.explore.Intn(n)
		for i, act := range a.actions {
			if act.Feasible(a.space, cfg) {
				if k == 0 {
					return i
				}
				k--
			}
		}
	}
	ord := a.space.Ordinal(cfg)
	q := a.read(ord, cfg)
	if q == nil {
		q = a.regionFor().hold(ord)
	}
	best, bestV := -1, 0.0
	for i, act := range a.actions {
		if !act.Feasible(a.space, cfg) {
			continue
		}
		if v := q[i]; best < 0 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// read returns the row the agent reads for cfg (lattice ordinal ord): the row
// it holds, else the row the policy seeds, which it does not keep, else nil,
// a row of zeros. The row is valid until the next read.
func (a *Agent) read(ord uint64, cfg config.Config) []float64 {
	if row := a.region.held(ord); row != nil {
		return row
	}
	if a.policy == nil {
		return nil
	}
	a.policy.SeedRow(cfg, a.row)
	return a.row
}

// maxValue returns max_a Q(cfg, a) over every action, feasible or not.
func (a *Agent) maxValue(ord uint64, cfg config.Config) float64 {
	q := a.read(ord, cfg)
	if q == nil {
		return 0
	}
	best := q[0]
	for _, v := range q[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// learn folds one measured interval into the sample table, retrains the
// Q-table over the region, and emits the retrain telemetry (counter, qDelta
// gauge, trace event). It returns the change of the visited state's best
// Q-value for the step's own trace event.
func (a *Agent) learn(ord uint64, cfg config.Config, rt float64) (float64, error) {
	a.regionFor().record(ord, cfg, rt)
	qBefore := a.maxValue(ord, cfg)
	batch, err := a.retrain()
	if err != nil {
		return 0, err
	}
	qDelta := a.maxValue(ord, cfg) - qBefore
	if a.tel != nil {
		a.tel.retrains.Inc()
		a.tel.qDelta.Set(qDelta)
	}
	if a.trace != nil {
		a.trace.Add(telemetry.Event{
			Kind:      telemetry.KindRetrain,
			Iteration: a.iteration,
			State:     cfg.Key(),
			QDelta:    qDelta,
			Sweeps:    batch.Sweeps,
			Converged: batch.Converged,
		})
	}
	return qDelta, nil
}

// retrain runs the per-interval batch training pass (Algorithm 3 step 9) — a
// Gauss–Seidel solve over the region, from the rows it holds, so it draws
// nothing from the agent's RNG — and reports how it converged.
func (a *Agent) retrain() (mdp.BatchResult, error) {
	batch, err := a.region.solve(mdp.BatchConfig{
		Params:    a.opts.Batch,
		MaxSweeps: a.opts.BatchSweeps,
		Theta:     a.opts.BatchTheta,
	})
	if err != nil {
		err = fmt.Errorf("core: retrain: %w", err)
	}
	return batch, err
}
