package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/rac-project/rac/internal/backend"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/workload"
)

// State is a tenant's lifecycle FSM state. Legal transitions:
//
//	starting → running            (admission completes)
//	running  ⇄ paused             (admin pause/resume)
//	running | paused → draining   (admin drain or fleet shutdown)
//	draining → stopped            (final checkpoint written)
//	any      → failed             (Step returned a non-recoverable error)
type State string

// The tenant lifecycle states.
const (
	StateStarting State = "starting"
	StateRunning  State = "running"
	StatePaused   State = "paused"
	StateDraining State = "draining"
	StateStopped  State = "stopped"
	StateFailed   State = "failed"
)

// States lists the lifecycle states in FSM order, for gauges and docs.
func States() []State {
	return []State{StateStarting, StateRunning, StatePaused, StateDraining, StateStopped, StateFailed}
}

// TenantSpec describes one managed system: what backend to build, which
// paper context it runs in, its SLA, and how it participates in the fleet's
// checkpoint and warm-start machinery. The zero values of optional fields
// inherit fleet defaults. Specs serialize to JSON as entries of the racd
// config file.
type TenantSpec struct {
	// Name uniquely identifies the tenant within the fleet.
	Name string `json:"name"`
	// Backend selects the managed system: "sim" (discrete-event webtier
	// model), "analytic" (MVA queueing surface) or "live" (an in-process
	// bookstore plus HTTP load generator, shut down with the fleet). Default
	// "sim".
	Backend string `json:"backend,omitempty"`
	// Context is the paper context name ("context-1" … "context-6") the
	// tenant's system starts in. Default "context-1".
	Context string `json:"context,omitempty"`
	// SLASeconds overrides the fleet's SLA for this tenant when positive.
	SLASeconds float64 `json:"slaSeconds,omitempty"`
	// Seed drives the tenant's RNG streams. Zero derives a stable seed from
	// the fleet seed and the tenant name.
	Seed uint64 `json:"seed,omitempty"`
	// Faults wraps the system in the fault-injection layer with the scenario
	// at this path and enables the agent's resilience policy.
	Faults string `json:"faults,omitempty"`
	// NoiseSigma adds lognormal measurement noise (analytic backend only).
	NoiseSigma float64 `json:"noiseSigma,omitempty"`
	// SettleSeconds and MeasureSeconds override the sim backend's virtual
	// measurement windows when positive (smoke tests shrink them); on a
	// "live" tenant MeasureSeconds is the wall-clock measurement interval.
	SettleSeconds  float64 `json:"settleSeconds,omitempty"`
	MeasureSeconds float64 `json:"measureSeconds,omitempty"`
	// CheckpointEvery overrides the fleet checkpoint cadence (intervals
	// between snapshots) for this tenant when positive.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// Scenario drives a time-varying workload: a library scenario name
	// ("diurnal", "flashcrowd", "mixdrift", "ramp", "steady") or a JSON
	// scenario file path. The scenario advances one scenario interval per
	// completed agent step; each interval's workload is applied to the
	// backend before the step measures it, so the agent tunes against the
	// moving load. A "live" tenant's open-loop load generator additionally
	// follows the same compiled schedule — size MeasureSeconds so
	// one wall interval covers one scenario interval (wall seconds × the
	// 100× time compression = Scenario.IntervalSeconds).
	Scenario string `json:"scenario,omitempty"`
	// Rate switches a "live" tenant's load generator to the open-loop engine:
	// offered load in paper-scale requests per second. Zero keeps the
	// closed-loop emulated browsers.
	Rate float64 `json:"rate,omitempty"`
	// Arrival selects the open-loop arrival process ("poisson" or "uniform";
	// empty means poisson).
	Arrival string `json:"arrival,omitempty"`
	// Capacity wraps the backend in the elastic capacity decorator: a
	// saturation analyzer scales the VM level between the agent's retrains,
	// and each applied scale warm-starts the agent from the registry policy
	// learned at the new level's context when one exists (SQLR-style
	// per-level policy memory).
	Capacity bool `json:"capacity,omitempty"`
	// CapacityDelay is the scale-up provisioning delay in measurement
	// intervals (scale-downs always apply on the next interval).
	CapacityDelay int `json:"capacityDelay,omitempty"`
	// CapacityCost prices the VM level into the agent's reward, per
	// level·interval; 0 leaves capacity unpriced.
	CapacityCost float64 `json:"capacityCost,omitempty"`
	// TrainPolicy trains an initial policy for the tenant's context at
	// admission (fast, on the analytic surface) and publishes it to the
	// shared registry when the context has none yet.
	TrainPolicy bool `json:"trainPolicy,omitempty"`
	// NoWarmStart opts the tenant out of registry warm starts — it always
	// cold-starts, even when a context-matched policy exists.
	NoWarmStart bool `json:"noWarmStart,omitempty"`
}

// Validate checks the spec's standalone fields (backend strings are resolved
// later by the system builder, which knows the supported set). Every failure
// wraps ErrBadSpec.
func (sp TenantSpec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("%w: tenant without a name", ErrBadSpec)
	}
	if sp.SLASeconds < 0 {
		return fmt.Errorf("%w: tenant %s: negative SLA %v", ErrBadSpec, sp.Name, sp.SLASeconds)
	}
	if sp.CheckpointEvery < 0 {
		return fmt.Errorf("%w: tenant %s: negative checkpoint interval %d", ErrBadSpec, sp.Name, sp.CheckpointEvery)
	}
	if sp.CapacityDelay < 0 || sp.CapacityCost < 0 {
		return fmt.Errorf("%w: tenant %s: negative capacity parameter", ErrBadSpec, sp.Name)
	}
	if !sp.Capacity && (sp.CapacityDelay != 0 || sp.CapacityCost != 0) {
		return fmt.Errorf("%w: tenant %s: capacity parameters set without capacity", ErrBadSpec, sp.Name)
	}
	return nil
}

// TenantStatus is the admin API's view of one tenant.
type TenantStatus struct {
	Name        string  `json:"name"`
	State       State   `json:"state"`
	Backend     string  `json:"backend"`
	Context     string  `json:"context"`
	ContextKey  string  `json:"context_key"`
	Interval    int     `json:"interval"`
	Policy      string  `json:"policy,omitempty"`
	WarmStarted bool    `json:"warm_started,omitempty"`
	Restored    bool    `json:"restored,omitempty"`
	LastRT      float64 `json:"last_rt,omitempty"`
	LastReward  float64 `json:"last_reward,omitempty"`
	Violations  int     `json:"violations,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
	Checkpoints int     `json:"checkpoints,omitempty"`
	// Capacity fields are set for tenants running the elastic decorator.
	Level         string `json:"level,omitempty"`
	CapacityUnits int    `json:"capacity_units,omitempty"`
	ScaleUps      int    `json:"scale_ups,omitempty"`
	ScaleDowns    int    `json:"scale_downs,omitempty"`
}

// Tenant is one managed system inside the fleet: a backend system, the RAC
// agent tuning it, and lifecycle/checkpoint bookkeeping. All mutable state is
// guarded by mu; the fleet's round scheduler steps at most one goroutine per
// tenant at a time.
type Tenant struct {
	mu sync.Mutex
	// run is held while the tenant's agent is in use: its round step and
	// bookkeeping, and the admin operations that touch the agent
	// (CheckpointNow, ForcePolicy, Shutdown's final checkpoint).
	run sync.Mutex

	spec       TenantSpec
	contextKey string
	ctx        system.Context // admission context; scales re-key it by level
	state      State
	built      *backend.Built // the managed system and its decorators
	agent      *core.Agent
	seq        *workload.Sequencer // non-nil when spec.Scenario drives the load
	trace      *telemetry.Trace    // fleet trace; receives per-interval workload events
	capOrdinal int                 // last capacity ordinal the warm-start hook acted on

	interval    int // completed measurement intervals
	checkpoints int // snapshots written for this tenant
	warmStarted bool
	restored    bool
	lastStep    core.StepResult
	lastErr     error

	stepSeconds *telemetry.Histogram // per-tenant step latency; nil without telemetry
	tel         *fleetInstruments    // the fleet's state gauges; nil without telemetry
}

// setStateLocked moves the tenant to state to, and between the fleet's
// per-state gauges. Call with t.mu held; every state change goes through it.
func (t *Tenant) setStateLocked(to State) {
	t.tel.move(t.state, to)
	t.state = to
}

// State returns the current lifecycle state.
func (t *Tenant) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Status snapshots the tenant for the admin API.
func (t *Tenant) Status() TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStatus{
		Name:        t.spec.Name,
		State:       t.state,
		Backend:     t.spec.Backend,
		Context:     t.spec.Context,
		ContextKey:  t.contextKey,
		Interval:    t.interval,
		WarmStarted: t.warmStarted,
		Restored:    t.restored,
		LastRT:      t.lastStep.MeanRT,
		LastReward:  t.lastStep.Reward,
		Violations:  t.lastStep.Violations,
		Checkpoints: t.checkpoints,
	}
	if p := t.agent.Policy(); p != nil {
		st.Policy = p.Name()
	}
	if t.lastErr != nil {
		st.LastError = t.lastErr.Error()
	}
	if c := t.built.Capacity; c != nil {
		st.Level = c.AppLevel().Name
		st.CapacityUnits = c.TotalCost()
		st.ScaleUps = c.ScaleUps()
		st.ScaleDowns = c.ScaleDowns()
	}
	return st
}

// step runs one agent iteration and folds the outcome into the tenant's
// bookkeeping. It is called by the fleet's round scheduler with the tenant in
// StateRunning; a step error fails the tenant rather than the fleet — unless
// the error is the fleet's own shutdown cancellation, in which case the
// aborted interval is simply discarded (no interval count, no state change)
// so the final checkpoint captures a consistent agent.
func (t *Tenant) step(ctx context.Context) {
	if err := t.applyScenario(); err != nil {
		t.mu.Lock()
		t.lastErr = err
		t.setStateLocked(StateFailed)
		t.mu.Unlock()
		return
	}
	start := time.Now()
	res, err := t.agent.Step(ctx)
	elapsed := time.Since(start).Seconds()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stepSeconds != nil {
		t.stepSeconds.Observe(elapsed)
	}
	if err != nil {
		if ctx.Err() != nil {
			t.lastErr = err
			return
		}
		t.lastErr = err
		t.setStateLocked(StateFailed)
		return
	}
	t.interval++
	t.lastStep = res
	t.lastErr = nil
}

// applyScenario moves the backend's workload to the tenant's current
// scenario interval before the step measures it — the fleet's driver-side
// context change. A restored tenant resumes mid-scenario because the
// interval counter is part of the checkpoint. No-op without a scenario.
func (t *Tenant) applyScenario() error {
	t.mu.Lock()
	seq, i := t.seq, t.interval
	t.mu.Unlock()
	if seq == nil {
		return nil
	}
	iv := seq.Observe(i)
	adj, ok := t.built.System.(system.Adjustable)
	if !ok {
		return fmt.Errorf("fleet: tenant %s: backend %q cannot adjust its workload for scenario %q",
			t.spec.Name, t.spec.Backend, t.spec.Scenario)
	}
	if err := adj.SetWorkload(iv.Workload); err != nil {
		return fmt.Errorf("fleet: tenant %s: scenario workload: %w", t.spec.Name, err)
	}
	if t.trace != nil {
		t.trace.Add(telemetry.Event{
			Kind:        telemetry.KindWorkload,
			Tenant:      t.spec.Name,
			Iteration:   i + 1,
			OfferedRate: iv.OfferedRate,
			Detail:      iv.PhaseName,
		})
	}
	return nil
}

// checkpointDue reports whether the tenant owes a periodic snapshot given the
// effective cadence.
func (t *Tenant) checkpointDue(defaultEvery int) bool {
	every := t.spec.CheckpointEvery
	if every <= 0 {
		every = defaultEvery
	}
	if every <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state != StateFailed && t.interval > 0 && t.interval%every == 0
}
