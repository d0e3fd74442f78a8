// Package rac is a reproduction of "A Reinforcement Learning Approach to
// Online Web Systems Auto-configuration" (Bu, Rao, Xu — ICDCS 2009): a
// Q-learning agent (RAC) that tunes the performance-critical configuration
// parameters of a multi-tier web system online, adapting to both workload
// changes and VM resource reallocation.
//
// The package re-exports the project's public API:
//
//   - the configuration space of paper Table 1 (DefaultSpace, Config, Action),
//   - systems to tune: a discrete-time simulator of the paper's
//     Apache/Tomcat/MySQL testbed (NewSimulatedSystem), an analytic queueing
//     surface (NewAnalyticSystem), and a live HTTP stack (NewLiveSystem),
//   - the RAC agent with policy initialization and online learning
//     (LearnPolicy, NewAgent), plus the paper's baselines,
//   - the experiment harness that regenerates every figure of the paper's
//     evaluation (NewHarness).
//
// Quick start:
//
//	sys, _ := rac.NewSimulatedSystem(rac.SimulatedOptions{Seed: 1})
//	policy, _ := rac.LearnPolicy("ctx", sys.Space(), sampler, rac.InitOptions{})
//	agent, _ := rac.NewAgent(sys, rac.AgentOptions{Policy: policy})
//	for i := 0; i < 25; i++ {
//	    step, _ := agent.Step(context.Background())
//	    fmt.Printf("iter %d: rt=%.3fs\n", step.Iteration, step.MeanRT)
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package rac

import (
	"context"
	"io"
	"sync"

	"github.com/rac-project/rac/internal/backend"
	"github.com/rac-project/rac/internal/bench"
	"github.com/rac-project/rac/internal/capacity"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/faults"
	"github.com/rac-project/rac/internal/fleet"
	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/loadgen"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
	"github.com/rac-project/rac/internal/workload"
)

// Configuration space (paper Table 1).
type (
	// Space is the discrete configuration lattice the agent searches.
	Space = config.Space
	// Config is one point of the lattice: a value per parameter.
	Config = config.Config
	// Param identifies one of the eight tunable parameters.
	Param = config.Param
	// ParamDef describes one parameter's lattice and default.
	ParamDef = config.Def
	// Action is a one-step reconfiguration (increase/decrease/keep).
	Action = config.Action
)

// The eight parameters of paper Table 1, plus the two SLO admission-gate
// parameters of the extended lattice.
const (
	MaxClients       = config.MaxClients
	KeepAliveTimeout = config.KeepAliveTimeout
	MinSpareServers  = config.MinSpareServers
	MaxSpareServers  = config.MaxSpareServers
	MaxThreads       = config.MaxThreads
	SessionTimeout   = config.SessionTimeout
	MinSpareThreads  = config.MinSpareThreads
	MaxSpareThreads  = config.MaxSpareThreads
	AdmitConcurrency = config.AdmitConcurrency
	AdmitQueue       = config.AdmitQueue
	// CapacityLevel is the elastic-capacity lattice parameter (a VM ordinal,
	// 1 = Level-3 … 3 = Level-1), interpreted by the capacity decorator.
	CapacityLevel = config.CapacityLevel
)

// DefaultSpace returns the eight-parameter space of paper Table 1.
func DefaultSpace() *Space { return config.Default() }

// AdmissionSpace returns the ten-parameter space: Table 1 plus the SLO
// admission gate's concurrency and queue caps, so Q-learning tunes the gate
// alongside the web-tier knobs.
func AdmissionSpace() *Space { return config.WithAdmission() }

// CapacitySpace returns the nine-parameter space: Table 1 plus the elastic
// CapacityLevel ordinal, so Q-learning trades VM capacity against the
// software knobs in one lattice (pair with WrapCapacity and
// Options.CapacityCost).
func CapacitySpace() *Space { return config.WithCapacity() }

// Workload model (TPC-W).
type (
	// Mix is a TPC-W traffic mix.
	Mix = tpcw.Mix
	// Workload pairs a mix with an emulated-browser population.
	Workload = tpcw.Workload
)

// The three TPC-W mixes.
const (
	Browsing = tpcw.Browsing
	Shopping = tpcw.Shopping
	Ordering = tpcw.Ordering
)

// VM environment.
type Level = vmenv.Level

// The paper's three VM resource levels.
var (
	Level1 = vmenv.Level1
	Level2 = vmenv.Level2
	Level3 = vmenv.Level3
)

// LevelOrdinal maps a VM level to its capacity ordinal (1 = Level-3 …
// 3 = Level-1), the unit the CapacityLevel lattice parameter moves in.
func LevelOrdinal(l Level) int { return vmenv.Ordinal(l) }

// LevelByOrdinal is the inverse of LevelOrdinal.
func LevelByOrdinal(n int) (Level, error) { return vmenv.ByOrdinal(n) }

// Systems.
type (
	// System is what agents tune: apply a configuration, measure one
	// interval of application-level performance.
	System = system.System
	// Adjustable is the experiment driver's control surface for context
	// changes (traffic and VM reallocation).
	Adjustable = system.Adjustable
	// Metrics is one interval's measurement.
	Metrics = system.Metrics
	// Context is a workload × VM-level combination (paper Table 2).
	Context = system.Context
	// SimulatedOptions configure NewSimulatedSystem.
	SimulatedOptions = system.SimulatedOptions
	// AnalyticOptions configure NewAnalyticSystem.
	AnalyticOptions = system.AnalyticOptions
	// SimulatedSystem is the discrete-time testbed simulation.
	SimulatedSystem = system.Simulated
	// AnalyticSystem is the queueing-model surface.
	AnalyticSystem = system.Analytic
)

// NewSimulatedSystem builds the simulated three-tier website.
func NewSimulatedSystem(opts SimulatedOptions) (*SimulatedSystem, error) {
	return system.NewSimulated(opts)
}

// NewAnalyticSystem builds the analytic (MVA) website surface.
func NewAnalyticSystem(opts AnalyticOptions) (*AnalyticSystem, error) {
	return system.NewAnalytic(opts)
}

// Contexts returns the six system contexts of paper Table 2.
func Contexts() []Context { return system.Table2() }

// ContextByName returns a paper context ("context-1" … "context-6").
func ContextByName(name string) (Context, error) { return system.ContextByName(name) }

// ApplyContext drives an adjustable system into a context (traffic + level).
func ApplyContext(sys Adjustable, ctx Context) error { return system.ApplyContext(sys, ctx) }

// The RAC agent and its components.
type (
	// Options are the agent's hyper-parameters (paper defaults via
	// DefaultOptions).
	Options = core.Options
	// AgentOptions configure NewAgent.
	AgentOptions = core.AgentOptions
	// Agent is the RAC online agent (paper Algorithm 3).
	Agent = core.Agent
	// StepResult reports one trial-and-error iteration.
	StepResult = core.StepResult
	// Tuner is the common interface of RAC and the baselines.
	Tuner = core.Tuner
	// Policy is an initial policy learned offline (paper Algorithm 2).
	Policy = core.Policy
	// PolicyStore holds per-context initial policies for adaptive switching.
	PolicyStore = core.PolicyStore
	// InitOptions configure LearnPolicy.
	InitOptions = core.InitOptions
	// RLParams are the tabular-learning hyper-parameters (α, γ, ε).
	RLParams = mdp.Params
	// Resilience is the agent's fault-handling policy: retry/backoff,
	// invalid-measurement rejection, and rollback-to-safe.
	Resilience = core.Resilience
)

// DefaultOptions returns the paper's hyper-parameters.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultResilience returns the fault-handling profile used by the
// fault-injection experiments (retries, rejection, rollback all enabled).
func DefaultResilience() Resilience { return core.DefaultResilience() }

// NewAgent builds a RAC agent tuning the given system.
func NewAgent(sys System, opts AgentOptions) (*Agent, error) { return core.NewAgent(sys, opts) }

// Sampler measures the mean response time of one configuration during policy
// initialization. With InitOptions.Procs beyond 1 it is called from several
// goroutines at once and must be safe for concurrent use.
type Sampler func(cfg Config) (float64, error)

// LearnPolicy runs policy initialization (paper Algorithm 2) for one system
// context: coarse grouped sampling, polynomial-regression prediction, and
// offline RL over the group lattice.
func LearnPolicy(name string, space *Space, sample Sampler, opts InitOptions) (*Policy, error) {
	var stream core.StreamSampler
	if sample != nil {
		stream = func(cfg Config, _ *sim.RNG) (float64, error) { return sample(cfg) }
	}
	return core.LearnPolicyStream(name, space, stream, opts)
}

// NewPolicyStore builds a store of initial policies.
func NewPolicyStore(policies ...*Policy) *PolicyStore { return core.NewPolicyStore(policies...) }

// LoadPolicy reads a policy previously written with Policy.Save, binding it
// to the configuration space it was trained on. The file holds the fitted
// surface, the offline schedule and the policy's digest; the group Q-table
// is solved again from them, and a solve that does not reproduce the digest
// is refused. Files of the earlier row-bearing format still load.
func LoadPolicy(r io.Reader, space *Space) (*Policy, error) { return core.LoadPolicy(r, space) }

// SystemSampler adapts a System into a policy-initialization Sampler
// (apply + measure per probed configuration). Offline sampling has no caller
// to cancel it, so each probe runs under context.Background(). LearnPolicy
// probes from InitOptions.Procs workers at once and a System is one stateful
// object, so the sampler runs each apply+measure pair alone.
func SystemSampler(sys System) Sampler {
	var mu sync.Mutex
	return func(cfg Config) (float64, error) {
		mu.Lock()
		defer mu.Unlock()
		if err := sys.Apply(context.Background(), cfg); err != nil {
			return 0, err
		}
		m, err := sys.Measure(context.Background())
		if err != nil {
			return 0, err
		}
		return m.MeanRT, nil
	}
}

// Baselines.

// NewStaticAgent wraps a system without ever reconfiguring it (the paper's
// static default baseline).
func NewStaticAgent(sys System, opts Options) (Tuner, error) {
	return core.NewStaticAgent(sys, opts)
}

// NewTrialAndErrorAgent builds the paper's coordinate-descent baseline.
func NewTrialAndErrorAgent(sys System, opts Options) (Tuner, error) {
	return core.NewTrialAndErrorAgent(sys, opts)
}

// NewHillClimbAgent builds the hill-climbing baseline (an extension beyond
// the paper's two baselines).
func NewHillClimbAgent(sys System, opts Options) (Tuner, error) {
	return core.NewHillClimbAgent(sys, opts)
}

// Live stack.
type (
	// LiveServer is the real in-process three-tier HTTP application.
	LiveServer = httpd.Server
	// LiveSystem adapts the live server + load generator to System.
	LiveSystem = httpd.Live
	// LoadDriver generates TPC-W-style HTTP load.
	LoadDriver = loadgen.Driver
	// LoadOptions configure a LoadDriver: closed-loop emulated browsers by
	// default, the open-loop paced engine when Rate is set.
	LoadOptions = loadgen.Options
	// LoadArrival selects the open-loop arrival process.
	LoadArrival = loadgen.Arrival
	// ServerParams are the web-system knobs in natural units.
	ServerParams = webtier.Params
)

// The open-loop arrival processes.
const (
	ArrivalPoisson = loadgen.ArrivalPoisson
	ArrivalUniform = loadgen.ArrivalUniform
)

// TimeScale is the ×100 compression between paper time and wall time on the
// live stack: one wall-clock second of measurement covers 100 paper seconds,
// so a 1.5 s interval is the paper's "5-minute" measurement window.
const TimeScale = httpd.TimeScale

// Load-generator validation sentinels; constructor errors wrap exactly one.
var (
	ErrBadLoadURL      = loadgen.ErrBadURL
	ErrBadLoadWorkload = loadgen.ErrBadWorkload
	ErrBadLoadRate     = loadgen.ErrBadRate
	ErrBadLoadArrival  = loadgen.ErrBadArrival
	ErrBadLoadInFlight = loadgen.ErrBadInFlight
	ErrBadLoadTimeout  = loadgen.ErrBadTimeout
)

// DefaultServerParams returns the Table 1 defaults in natural units.
func DefaultServerParams() ServerParams { return webtier.DefaultParams() }

// NewLiveServer builds the real three-tier stack.
func NewLiveServer(params ServerParams, level Level) (*LiveServer, error) {
	return httpd.NewServer(params, level)
}

// NewLoadDriver builds a closed-loop HTTP load generator against a base URL
// — the historical constructor, kept source-compatible as a thin wrapper
// over NewLoadDriverOptions.
func NewLoadDriver(base string, w Workload, seed uint64) (*LoadDriver, error) {
	return loadgen.New(loadgen.Options{BaseURL: base, Workload: w, Seed: seed})
}

// NewLoadDriverOptions builds a load generator from full options (open-loop
// rate, arrival process, admission bound).
func NewLoadDriverOptions(opts LoadOptions) (*LoadDriver, error) {
	return loadgen.New(opts)
}

// NewLiveSystem adapts a started live server and a load driver to the System
// interface so the agent can tune real traffic.
func NewLiveSystem(space *Space, server *LiveServer, driver *LoadDriver, initial Config) (*LiveSystem, error) {
	return httpd.NewLive(space, server, driver, initial)
}

// ParamsFromConfig converts a lattice configuration to natural units.
func ParamsFromConfig(space *Space, cfg Config) (ServerParams, error) {
	return webtier.ParamsFromConfig(space, cfg)
}

// Declarative backends (package internal/backend): one spec covering every
// backend and decorator — the shared build path behind racagent, racsim and
// the fleet's tenants.
type (
	// SystemSpec declares a system to tune: backend kind, context, seed, the
	// live stack's address and load, and the capacity and fault layers.
	SystemSpec = backend.Spec
	// BuiltSystem is BuildSystem's result: the System to hand to an agent
	// plus the live server, driver and decorators when configured.
	BuiltSystem = backend.Built
)

// BuildSystem constructs a system from one declarative spec. A live
// backend's server is started; BuiltSystem.Close shuts it down.
func BuildSystem(spec SystemSpec) (*BuiltSystem, error) { return backend.Build(spec) }

// Experiments.
type (
	// Harness regenerates the paper's evaluation figures.
	Harness = bench.Harness
	// HarnessOptions configure NewHarness.
	HarnessOptions = bench.Options
	// Figure is one reproduced experiment result.
	Figure = bench.Figure
	// Series is one labeled line of a figure.
	Series = bench.Series
)

// NewHarness builds the experiment harness.
func NewHarness(opts HarnessOptions) *Harness { return bench.New(opts) }

// Fault injection (package internal/faults): a deterministic, RNG-seeded
// fault layer that wraps any System and subjects the agent to apply/measure
// failures, latency spikes, error bursts, capacity drops and measurement
// noise, scheduled by a JSON-loadable scenario.
type (
	// FaultScenario is a declarative, replayable fault schedule.
	FaultScenario = faults.Scenario
	// FaultRule schedules one fault kind over a window of intervals.
	FaultRule = faults.Rule
	// FaultKind names an injectable fault type.
	FaultKind = faults.Kind
	// FaultySystem wraps a System and injects a scenario's faults.
	FaultySystem = faults.System
	// FaultOptions configure NewFaultySystem.
	FaultOptions = faults.Options
	// FaultInjection records one fired fault.
	FaultInjection = faults.Injection
)

// NewFaultySystem wraps sys with a fault-injection layer replaying the
// scenario in opts.
func NewFaultySystem(sys System, opts FaultOptions) (*FaultySystem, error) {
	return faults.New(sys, opts)
}

// LoadFaultScenario reads and validates a JSON fault scenario from a file
// (see examples/faults_basic.json).
func LoadFaultScenario(path string) (FaultScenario, error) { return faults.LoadFile(path) }

// FaultKinds returns every injectable fault kind in stable order.
func FaultKinds() []FaultKind { return faults.Kinds() }

// FigureIDs returns the reproducible figure identifiers in paper order.
func FigureIDs() []string { return bench.FigureIDs() }

// Elastic capacity control (package internal/capacity): the VM provisioning
// level becomes an actuator alongside the paper's software knobs. A
// deterministic saturation analyzer watches each interval's offered/completed
// counts and latency for the capacity knee; a decorator wraps any adjustable
// system with a provisioning-delayed scaler driven by lattice CapacityLevel
// moves (CapacitySpace) and, optionally, by analyzer verdicts between
// retrains (the fast scale path). Capacity consumption is priced into the
// agent's reward via Options.CapacityCost.
type (
	// CapacitySystem decorates an adjustable system with elastic capacity.
	CapacitySystem = capacity.System
	// CapacityOptions configure WrapCapacity.
	CapacityOptions = capacity.Options
	// CapacityScalable is what the decorator wraps: a tunable system whose
	// VM level a driver can change.
	CapacityScalable = capacity.Scalable
	// CapacityAnalyzer is the deterministic saturation detector.
	CapacityAnalyzer = capacity.Analyzer
	// CapacityConfig calibrates the analyzer.
	CapacityConfig = capacity.Config
	// CapacityObservation is one interval's saturation-relevant counts.
	CapacityObservation = capacity.Observation
	// CapacityDecision is one analyzer verdict with its evidence.
	CapacityDecision = capacity.Decision
	// CapacityVerdict is the analyzer's stance (stable/saturated/headroom).
	CapacityVerdict = capacity.Verdict
)

// WrapCapacity decorates an adjustable system with elastic capacity control.
func WrapCapacity(sys CapacityScalable, opts CapacityOptions) (*CapacitySystem, error) {
	return capacity.Wrap(sys, opts)
}

// NewCapacityAnalyzer builds a saturation analyzer with the given calibration.
func NewCapacityAnalyzer(cfg CapacityConfig) (*CapacityAnalyzer, error) {
	return capacity.NewAnalyzer(cfg)
}

// DefaultCapacityConfig returns the analyzer calibration the experiments use,
// referenced to the given SLA.
func DefaultCapacityConfig(slaSeconds float64) CapacityConfig {
	return capacity.DefaultConfig(slaSeconds)
}

// Workload engine (package internal/workload): composable, JSON-loadable
// scenarios (phases with rate/population/mix, sinusoid/ramp/spike modulation,
// mix drift) compiled into deterministic arrival schedules. A compiled
// schedule plugs into LoadOptions.Schedule to drive the open-loop engine, or
// into a WorkloadSequencer to drive per-interval context changes on
// simulated systems.
type (
	// WorkloadScenario is the declarative scenario spec.
	WorkloadScenario = workload.Scenario
	// WorkloadPhase is one ordered segment of a scenario.
	WorkloadPhase = workload.Phase
	// WorkloadModulation is one load-shaping operator on a phase.
	WorkloadModulation = workload.Modulation
	// WorkloadSchedule is a compiled scenario: a time-varying arrival source.
	WorkloadSchedule = workload.Schedule
	// WorkloadSequencer walks a schedule one measurement interval at a time.
	WorkloadSequencer = workload.Sequencer
	// WorkloadInterval is one interval's offered load and workload.
	WorkloadInterval = workload.Interval
)

// LoadWorkloadScenario reads and validates a JSON scenario from a file (see
// examples/scenarios/).
func LoadWorkloadScenario(path string) (WorkloadScenario, error) { return workload.LoadFile(path) }

// CompileWorkload compiles a scenario into a deterministic schedule.
func CompileWorkload(sc WorkloadScenario) (*WorkloadSchedule, error) { return workload.Compile(sc) }

// WorkloadLibrary returns the built-in scenario library by name (diurnal,
// flashcrowd, mixdrift, ramp, steady).
func WorkloadLibrary() map[string]WorkloadScenario { return workload.Library() }

// ResolveWorkloadScenario resolves a library scenario name or a JSON scenario
// file path — the shared spelling of every -scenario flag and config field.
func ResolveWorkloadScenario(arg string) (WorkloadScenario, error) { return workload.Resolve(arg) }

// NewWorkloadSequencer walks a compiled schedule one measurement interval at
// a time (intervalSeconds 0 uses the scenario's interval).
func NewWorkloadSequencer(src *WorkloadSchedule, intervalSeconds float64) *WorkloadSequencer {
	return workload.NewSequencer(src, intervalSeconds)
}

// Observability (package internal/telemetry): a dependency-free metrics
// registry plus a decision-trace ring. The live server exposes its registry
// at /metrics (Prometheus text format) and an attached trace at
// /admin/trace; the agent, load driver and harness register instruments on
// the same registry.
type (
	// Telemetry is a registry of counters, gauges and latency histograms.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a JSON-able point-in-time copy of a registry.
	TelemetrySnapshot = telemetry.Snapshot
	// Trace is a fixed-capacity ring buffer of agent decision events.
	Trace = telemetry.Trace
	// TraceEvent is one structured decision record (step, retrain, or
	// policy switch).
	TraceEvent = telemetry.Event
	// TraceEventKind discriminates decision-trace entries.
	TraceEventKind = telemetry.EventKind
)

// TraceKindWorkload marks the per-interval workload events scenario-driven
// runs interleave into the decision trace, so load drift can be correlated
// with the agent's switches and rollbacks.
const TraceKindWorkload = telemetry.KindWorkload

// TraceKindCapacity marks the capacity decorator's scale decisions and
// applied scales in the decision trace.
const TraceKindCapacity = telemetry.KindCapacity

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewTrace returns a decision-trace ring holding the most recent capacity
// events.
func NewTrace(capacity int) *Trace { return telemetry.NewTrace(capacity) }

// Multi-tenant fleet (package internal/fleet): a control plane that runs one
// RAC agent per managed web system on the shared worker pool, checkpoints
// learned state to disk for warm restarts, and warm-starts new tenants from a
// registry of context-matched policies. cmd/racd wraps it in a daemon; the
// admin lifecycle API (Fleet.Handler) mounts next to /metrics on any mux.
type (
	// Fleet is the multi-tenant control plane.
	Fleet = fleet.Fleet
	// FleetOptions configure NewFleet.
	FleetOptions = fleet.Options
	// TenantSpec declares one managed tenant; racd configs hold a list of
	// these in JSON.
	TenantSpec = fleet.TenantSpec
	// Tenant is one managed system plus the RAC agent tuning it.
	Tenant = fleet.Tenant
	// TenantStatus is the admin API's per-tenant summary.
	TenantStatus = fleet.TenantStatus
	// TenantState is a tenant lifecycle state (starting → running → paused →
	// draining → stopped, or failed).
	TenantState = fleet.State
	// FleetView is the admin API's fleet-wide summary (GET /admin/v1/fleet).
	FleetView = fleet.FleetView
	// TenantPage is one page of the paginated tenant listing
	// (GET /admin/v1/tenants?offset=&limit=).
	TenantPage = fleet.TenantPage
	// AdmitResult is one entry of a bulk-admission response
	// (POST /admin/v1/tenants).
	AdmitResult = fleet.AdmitResult
	// ShardStatus is one scheduling shard's snapshot (GET /admin/v1/shards).
	ShardStatus = fleet.ShardStatus
	// FleetCheckpoint is one tenant's persisted state snapshot.
	FleetCheckpoint = fleet.Checkpoint
	// FleetSystemBuilder replaces the fleet's built-in backends (sim,
	// analytic, live) for every tenant; the fleet still layers capacity and
	// faults over its result. Tests and the benchmark ledger use it.
	FleetSystemBuilder = fleet.SystemBuilder
	// AgentState is the serializable snapshot of a RAC agent mid-run: both
	// RNG streams, the Q-table, the retraining window and the SLA bookkeeping.
	AgentState = core.AgentState
)

// ErrCorruptCheckpoint reports a checkpoint file that failed validation
// (magic, version, length or CRC); the fleet skips such files and falls back
// to the previous snapshot.
var ErrCorruptCheckpoint = fleet.ErrCorruptCheckpoint

// Fleet error sentinels: every fleet API error wraps exactly one, so callers
// branch with errors.Is instead of matching messages. The admin HTTP layer
// maps them onto status codes and stable error-code slugs.
var (
	// ErrFleetBadOptions marks an invalid FleetOptions field.
	ErrFleetBadOptions = fleet.ErrBadOptions
	// ErrFleetBadShards marks an invalid shard count.
	ErrFleetBadShards = fleet.ErrBadShards
	// ErrFleetBadSpec marks an invalid TenantSpec.
	ErrFleetBadSpec = fleet.ErrBadSpec
	// ErrFleetDuplicateTenant marks admission of a name the fleet already holds.
	ErrFleetDuplicateTenant = fleet.ErrDuplicateTenant
	// ErrFleetUnknownTenant marks an operation on an unadmitted name.
	ErrFleetUnknownTenant = fleet.ErrUnknownTenant
	// ErrFleetBadTransition marks a lifecycle move the tenant FSM forbids.
	ErrFleetBadTransition = fleet.ErrBadTransition
	// ErrFleetNoPolicy marks a context key with no stored policy.
	ErrFleetNoPolicy = fleet.ErrNoPolicy
	// ErrFleetCheckpointsDisabled marks a checkpoint request on a fleet built
	// without a checkpoint directory.
	ErrFleetCheckpointsDisabled = fleet.ErrCheckpointsDisabled
)

// NewFleet builds an empty fleet control plane.
func NewFleet(opts FleetOptions) (*Fleet, error) { return fleet.New(opts) }

// ReadFleetCheckpoint decodes one checkpoint file, verifying its envelope.
func ReadFleetCheckpoint(path string) (*FleetCheckpoint, error) {
	return fleet.ReadCheckpointFile(path)
}

// FleetContextKey renders the registry key a system context maps to.
func FleetContextKey(ctx Context) string { return fleet.ContextKey(ctx) }

// LoadAgentState reads an agent snapshot previously written with
// AgentState.Save (for example by racagent -snapshot).
func LoadAgentState(r io.Reader) (*AgentState, error) { return core.LoadAgentState(r) }
