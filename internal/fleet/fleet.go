// Package fleet is the multi-tenant control plane: it runs many RAC agents —
// one per managed web system — on the shared worker pool, checkpoints their
// learned state to disk, and warm-starts new tenants from a registry of
// context-matched policies (exact context first, nearest context as a
// fallback). Tenants hash onto deterministic shards; each shard advances its
// tenants sequentially in admission order while the shards run concurrently,
// and an admin operation locks only the tenant it touches instead of a
// fleet-wide lock. The scheduling stays deterministic: each tenant derives
// every random draw from its own pre-split seed and shared state only
// changes at round barriers, so a fleet run is byte-identical at any worker
// or shard count.
package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"github.com/rac-project/rac/internal/backend"
	"github.com/rac-project/rac/internal/capacity"
	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/loadgen"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/workload"
)

// SystemBuilder constructs the bare managed system for one tenant in place of
// the built-in backends; the fleet layers the spec's capacity and fault
// decorators over its result.
type SystemBuilder func(spec TenantSpec, ctx system.Context, seed uint64) (system.System, error)

// Options configure a Fleet.
type Options struct {
	// Seed is the fleet-wide base seed; each tenant folds its name into it,
	// so per-tenant streams are stable under tenant addition and removal.
	Seed uint64
	// Procs bounds the workers advancing shards in one round. Zero or
	// negative uses every CPU; results are identical for every value.
	Procs int
	// Shards is how many scheduling shards tenants hash onto (default 8).
	// Each shard steps its tenants sequentially; shards run concurrently.
	// Results are byte-identical at any shard count.
	Shards int
	// TenantMetricsLimit caps per-tenant step-latency histogram cardinality:
	// the first TenantMetricsLimit admitted tenants get their own
	// rac_fleet_step_seconds series, later tenants fold into per-shard
	// rac_fleet_shard_step_seconds aggregates so a 10k-tenant /metrics
	// exposition stays bounded. Zero uses the default (512); negative sends
	// every tenant to the shard aggregates.
	TenantMetricsLimit int
	// SLASeconds is the default SLA for tenants that do not set their own;
	// zero uses the paper default (2 s).
	SLASeconds float64
	// CheckpointDir enables the checkpoint subsystem: each tenant's learned
	// state is snapshotted there and restored on admission after a restart.
	// Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the default snapshot cadence in completed intervals
	// (default 5); per-tenant specs may override it.
	CheckpointEvery int
	// CheckpointKeep is how many snapshots to retain per tenant (minimum 2).
	CheckpointKeep int
	// RegistryDir enables the shared policy registry: trained initial
	// policies are published there as recipes keyed by system context, and
	// new tenants admitted into a matching context warm-start from them.
	// Empty disables the registry.
	RegistryDir string
	// TrainInit overrides the coarse-sampling and offline-training schedule
	// used when a tenant trains a context policy (TenantSpec.TrainPolicy).
	// Only CoarseLevels and Batch are honored — seed, SLA, worker count and
	// telemetry stay fleet-controlled. Nil uses the paper defaults; smoke
	// tests pass a reduced schedule. A recipe keeps the schedule it used.
	TrainInit *core.InitOptions
	// Telemetry, when non-nil, receives the fleet gauges and counters plus
	// per-tenant step latency histograms.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives lifecycle and checkpoint events alongside
	// the agents' decision events.
	Trace *telemetry.Trace
	// NewSystem, when non-nil, builds every tenant's backend instead of the
	// built-in "sim", "analytic" and "live" — a seam for tests and the
	// benchmark ledger.
	NewSystem SystemBuilder
}

// defaultShards is the shard count when Options.Shards is zero.
const defaultShards = 8

// maxShards bounds Options.Shards; past this the per-shard bookkeeping
// overhead dwarfs any parallelism win.
const maxShards = 4096

// defaultTenantMetricsLimit is the per-tenant histogram cardinality cap when
// Options.TenantMetricsLimit is zero.
const defaultTenantMetricsLimit = 512

// surfaceLimit bounds the fleet's analytic response-surface memo. A steady
// fleet touches a few hundred lattice points per context, but scenario
// tenants re-key on every client-count change, so a long-lived daemon's key
// set is unbounded; at ~200 bytes an entry the cap holds the memo near 13 MB.
const surfaceLimit = 1 << 16

// validate checks the Options fields, wrapping one sentinel per failure.
func (o Options) validate() error {
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("%w: negative checkpoint cadence %d", ErrBadOptions, o.CheckpointEvery)
	}
	if o.CheckpointKeep < 0 {
		return fmt.Errorf("%w: negative checkpoint retention %d", ErrBadOptions, o.CheckpointKeep)
	}
	if o.SLASeconds < 0 {
		return fmt.Errorf("%w: negative SLA %v", ErrBadOptions, o.SLASeconds)
	}
	if o.Shards < 0 {
		return fmt.Errorf("%w: %d", ErrBadShards, o.Shards)
	}
	if o.Shards > maxShards {
		return fmt.Errorf("%w: %d exceeds the maximum %d", ErrBadShards, o.Shards, maxShards)
	}
	return nil
}

// withDefaults returns a copy of o with zero-valued fields resolved.
func (o Options) withDefaults() Options {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 5
	}
	if o.Shards == 0 {
		o.Shards = defaultShards
	}
	if o.TenantMetricsLimit == 0 {
		o.TenantMetricsLimit = defaultTenantMetricsLimit
	}
	return o
}

// fleetInstruments are the control plane's registry metrics; nil when
// telemetry is not wired.
type fleetInstruments struct {
	reg         *telemetry.Registry
	rounds      *telemetry.Counter
	checkpoints *telemetry.Counter
	restores    *telemetry.Counter
	warmStarts  *telemetry.Counter
	// tenants counts the admitted tenants in each lifecycle state; every
	// state change moves one tenant between two gauges (move).
	tenants map[State]*telemetry.Gauge
}

func newFleetInstruments(reg *telemetry.Registry) *fleetInstruments {
	tenants := make(map[State]*telemetry.Gauge, len(States()))
	for _, s := range States() {
		tenants[s] = reg.Gauge("rac_fleet_tenants", "Tenants currently in each lifecycle state.",
			telemetry.Labels{"state": string(s)})
	}
	return &fleetInstruments{
		tenants: tenants,
		reg:     reg,
		rounds: reg.Counter("rac_fleet_rounds_total",
			"Barrier-synchronized scheduling rounds the fleet has run.", nil),
		checkpoints: reg.Counter("rac_fleet_checkpoints_total",
			"Tenant state snapshots written to the checkpoint store.", nil),
		restores: reg.Counter("rac_fleet_restores_total",
			"Tenants restored from an on-disk checkpoint at admission.", nil),
		warmStarts: reg.Counter("rac_fleet_warm_starts_total",
			"Tenants warm-started from a context-matched registry policy.", nil),
	}
}

// move counts one tenant out of state from (none when from is empty) and into
// state to. It is a no-op without telemetry.
func (fi *fleetInstruments) move(from, to State) {
	if fi == nil {
		return
	}
	if from != "" {
		fi.tenants[from].Add(-1)
	}
	fi.tenants[to].Add(1)
}

// stepBuckets resolve per-tenant step latency: simulated steps are
// millisecond-scale, live measurement intervals are minutes.
var stepBuckets = []float64{1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 5, 30, 120, 600}

// Fleet is the control plane: it admits tenants, steps every running tenant
// once per round on the shared pool, writes periodic checkpoints, and serves
// the admin lifecycle API.
type Fleet struct {
	opts  Options
	space *config.Space

	ckpts    *CheckpointStore // nil without CheckpointDir
	registry *PolicyRegistry  // nil without RegistryDir
	policies *core.PolicyStore
	// surface memoizes solved analytic points across every tenant: tenants of
	// one context re-measure the same few hundred configurations each round.
	surface *surface.Cache

	// shards own the tenants; admin operations that touch agent internals
	// (forced policy switches, manual checkpoints) take the tenant's run
	// lock instead of a fleet-wide one.
	shards []*shard

	// roundMu serializes whole scheduling rounds (RunRound, Shutdown).
	roundMu sync.Mutex

	mu      sync.Mutex
	tenants []*Tenant // admission order — the fleet's deterministic iteration order
	byName  map[string]*Tenant
	rounds  int

	// pending holds policies discovered by in-round bookkeeping (capacity
	// warm starts). They join the shared store only at the round barrier,
	// sorted by name, so concurrent shards never observe a mid-round add.
	pendingMu sync.Mutex
	pending   []*core.Policy

	tel   *fleetInstruments
	trace *telemetry.Trace

	// runCtx is canceled by Shutdown before it waits for the round lock, so
	// an in-flight live measurement interval aborts instead of running out
	// its window. Steps canceled this way are discarded, not failed.
	runCtx  context.Context
	stopRun context.CancelFunc
}

// New builds an empty fleet.
func New(opts Options) (*Fleet, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	f := &Fleet{
		opts:     opts,
		space:    config.Default(),
		policies: core.NewPolicyStore(),
		surface:  surface.NewBounded(opts.Telemetry, surfaceLimit),
		byName:   make(map[string]*Tenant),
		trace:    opts.Trace,
		shards:   make([]*shard, opts.Shards),
	}
	for i := range f.shards {
		f.shards[i] = &shard{id: i}
	}
	f.runCtx, f.stopRun = context.WithCancel(context.Background())
	var err error
	if opts.CheckpointDir != "" {
		if f.ckpts, err = NewCheckpointStore(opts.CheckpointDir, opts.CheckpointKeep); err != nil {
			return nil, err
		}
	}
	if opts.RegistryDir != "" {
		if f.registry, err = NewPolicyRegistry(opts.RegistryDir, f.space, opts.Procs, opts.Telemetry); err != nil {
			return nil, err
		}
	}
	if opts.Telemetry != nil {
		f.tel = newFleetInstruments(opts.Telemetry)
	}
	return f, nil
}

// Space returns the configuration space shared by every tenant, registry
// policy and checkpoint in this fleet.
func (f *Fleet) Space() *config.Space { return f.space }

// Rounds returns the number of completed scheduling rounds.
func (f *Fleet) Rounds() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rounds
}

// ContextKey is the registry key of a system context: traffic mix, client
// population and VM resource level. Tenants admitted into contexts with equal
// keys share warm-start policies.
func ContextKey(ctx system.Context) string {
	return fmt.Sprintf("%s-%d@%s", ctx.Workload.Mix, ctx.Workload.Clients, ctx.Level.Name)
}

// deriveSeed folds a tenant name into the fleet seed, so a tenant's streams
// depend only on its own name — stable when other tenants come and go.
func deriveSeed(base uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ h.Sum64()
}

// Tenant returns the named tenant, or nil.
func (f *Fleet) Tenant(name string) *Tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byName[name]
}

// Tenants returns the tenants in admission order.
func (f *Fleet) Tenants() []*Tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Tenant, len(f.tenants))
	copy(out, f.tenants)
	return out
}

// Statuses snapshots every tenant for the admin API, in admission order.
func (f *Fleet) Statuses() []TenantStatus {
	ts := f.Tenants()
	out := make([]TenantStatus, len(ts))
	for i, t := range ts {
		out[i] = t.Status()
	}
	return out
}

// ShardStatus is one scheduling shard's admin-API snapshot.
type ShardStatus struct {
	// ID is the shard index tenants hash onto.
	ID int `json:"id"`
	// Tenants is how many tenants the shard owns.
	Tenants int `json:"tenants"`
	// Running is how many of them are in StateRunning.
	Running int `json:"running"`
}

// ShardStatuses snapshots every scheduling shard in shard-index order.
func (f *Fleet) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(f.shards))
	for i, sh := range f.shards {
		st := ShardStatus{ID: sh.id}
		for _, t := range sh.snapshot() {
			st.Tenants++
			if t.State() == StateRunning {
				st.Running++
			}
		}
		out[i] = st
	}
	return out
}

// Active counts tenants that can still make progress (not stopped or failed).
func (f *Fleet) Active() int {
	n := 0
	for _, t := range f.Tenants() {
		switch t.State() {
		case StateStopped, StateFailed:
		default:
			n++
		}
	}
	return n
}

// Admit builds, warm-starts and (when a checkpoint exists) restores one
// tenant, leaving it in StateRunning. The sequence is: resolve the context
// and scenario, build the backend system, adopt a context-matched registry
// policy (or train and publish one when the spec asks for it), construct the
// agent, then — if the checkpoint store holds a valid snapshot for this
// tenant name — restore the agent and system state from it. An admission
// that fails after the build shuts a live tenant's server down again.
func (f *Fleet) Admit(spec TenantSpec) (_ *Tenant, err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	_, dup := f.byName[spec.Name]
	f.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateTenant, spec.Name)
	}

	ctxName := spec.Context
	if ctxName == "" {
		ctxName = "context-1"
	}
	ctx, err := system.ContextByName(ctxName)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", spec.Name, err)
	}
	key := ContextKey(ctx)
	seed := spec.Seed
	if seed == 0 {
		seed = deriveSeed(f.opts.Seed, spec.Name)
	}

	// A scenario tenant carries its own sequencer: one scenario interval per
	// agent step, applied to the backend before each measurement. Resolving
	// and compiling before the build makes a bad scenario an admission error,
	// not a mid-run failure, and hands a live tenant's load generator the
	// same compiled schedule.
	var sched *workload.Schedule
	var seq *workload.Sequencer
	if spec.Scenario != "" {
		sc, err := workload.Resolve(spec.Scenario)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s: %w", spec.Name, err)
		}
		if sched, err = workload.Compile(sc); err != nil {
			return nil, fmt.Errorf("fleet: tenant %s: scenario %s: %w", spec.Name, sc.Name, err)
		}
		seq = workload.NewSequencer(sched, sc.Interval())
	}

	o := core.DefaultOptions()
	if f.opts.SLASeconds > 0 {
		o.SLASeconds = f.opts.SLASeconds
	}
	if spec.SLASeconds > 0 {
		o.SLASeconds = spec.SLASeconds
	}
	if spec.Faults != "" {
		o.Resilience = core.DefaultResilience()
	}
	if spec.CapacityCost > 0 {
		o.CapacityCost = spec.CapacityCost
	}

	built, err := f.buildSystem(spec, ctx, seed, sched, o.SLASeconds)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", spec.Name, err)
	}
	defer func() {
		if err != nil {
			_ = built.Close(context.Background())
		}
	}()
	sys := built.System
	if seq != nil {
		if _, ok := sys.(system.Adjustable); !ok {
			return nil, fmt.Errorf("fleet: tenant %s: backend %q cannot adjust its workload for scenario %s",
				spec.Name, spec.Backend, sched.Scenario().Name)
		}
	}

	// Pull the tenant's newest valid snapshot first: it decides whether the
	// registry policy is a warm start or just name resolution for restore.
	var ck *Checkpoint
	var ckPath string
	if f.ckpts != nil {
		if ck, ckPath, err = f.ckpts.Latest(spec.Name); err != nil {
			return nil, fmt.Errorf("fleet: tenant %s: %w", spec.Name, err)
		}
	}

	pol, warm, err := f.contextPolicy(spec, ctx, key)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", spec.Name, err)
	}

	agent, err := core.NewAgent(sys, core.AgentOptions{
		Options:   o,
		Policy:    pol,
		Store:     f.policies,
		Seed:      seed,
		Telemetry: f.opts.Telemetry,
		Trace:     f.opts.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", spec.Name, err)
	}

	sh := f.shards[shardOf(spec.Name, len(f.shards))]
	t := &Tenant{
		spec:        spec,
		contextKey:  key,
		ctx:         ctx,
		state:       StateStarting,
		built:       built,
		agent:       agent,
		seq:         seq,
		trace:       f.trace,
		warmStarted: pol != nil && warm,
		tel:         f.tel,
	}
	if built.Capacity != nil {
		t.capOrdinal = built.Capacity.Ordinal()
	}
	if f.tel != nil {
		t.stepSeconds = f.stepHistogram(sh, spec.Name)
	}
	if t.warmStarted && f.tel != nil {
		f.tel.warmStarts.Inc()
	}

	if ck != nil {
		if err := f.restore(t, ck, ckPath); err != nil {
			// A snapshot that decodes but no longer matches the tenant (policy
			// gone from the registry, space drift) falls back to a cold start;
			// the trace records why.
			f.traceEvent(telemetry.Event{
				Kind:   telemetry.KindCheckpoint,
				Tenant: spec.Name,
				Detail: "restore failed, cold start: " + err.Error(),
			})
			if aerr := sys.Apply(context.Background(), agent.Config()); aerr != nil {
				return nil, fmt.Errorf("fleet: tenant %s: reset after failed restore: %w", spec.Name, aerr)
			}
		}
	}

	f.mu.Lock()
	if _, dup := f.byName[spec.Name]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicateTenant, spec.Name)
	}
	f.tenants = append(f.tenants, t)
	f.byName[spec.Name] = t
	f.mu.Unlock()
	f.tel.move("", StateStarting)
	sh.add(t)

	f.transition(t, StateRunning, "admitted")
	return t, nil
}

// stepHistogram picks the step-latency histogram for the next admitted
// tenant: its own labeled series while the fleet is under the cardinality
// cap, the owning shard's aggregate series beyond it.
func (f *Fleet) stepHistogram(sh *shard, name string) *telemetry.Histogram {
	limit := f.opts.TenantMetricsLimit
	f.mu.Lock()
	admitted := len(f.tenants)
	f.mu.Unlock()
	if limit > 0 && admitted < limit {
		return f.tel.reg.Histogram("rac_fleet_step_seconds",
			"Wall-clock latency of one tenant step (apply + measure + retrain).",
			stepBuckets, telemetry.Labels{"tenant": name})
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stepSeconds == nil {
		sh.stepSeconds = f.tel.reg.Histogram("rac_fleet_shard_step_seconds",
			"Wall-clock tenant step latency aggregated per shard (tenants past the per-tenant cardinality cap).",
			stepBuckets, telemetry.Labels{"shard": fmt.Sprintf("%d", sh.id)})
	}
	return sh.stepSeconds
}

// buildSystem translates the tenant spec into a backend.Spec and builds it:
// through backend.Build, or by wrapping an Options.NewSystem result. sched is
// the tenant's compiled scenario (nil without one), which a live tenant's
// open-loop engine follows; sla calibrates the capacity analyzer.
func (f *Fleet) buildSystem(spec TenantSpec, ctx system.Context, seed uint64, sched *workload.Schedule, sla float64) (*backend.Built, error) {
	bs := backend.Spec{
		Backend:          spec.Backend,
		Space:            f.space,
		Context:          ctx,
		Seed:             seed,
		SettleSeconds:    spec.SettleSeconds,
		MeasureSeconds:   spec.MeasureSeconds,
		NoiseSigma:       spec.NoiseSigma,
		Surface:          f.surface,
		Trace:            f.opts.Trace,
		Capacity:         spec.Capacity,
		CapacityDelay:    spec.CapacityDelay,
		CapacityAnalyzer: capacity.DefaultConfig(sla),
		FaultsPath:       spec.Faults,
		Telemetry:        f.opts.Telemetry,
	}
	if spec.Backend == "live" {
		bs.Interval = time.Duration(spec.MeasureSeconds * float64(time.Second))
		bs.Load = loadgen.Options{
			Rate:           spec.Rate,
			ArrivalProcess: loadgen.Arrival(spec.Arrival),
			Schedule:       sched,
		}
	}
	if f.opts.NewSystem == nil {
		return backend.Build(bs)
	}
	sys, err := f.opts.NewSystem(spec, ctx, seed)
	if err != nil {
		return nil, err
	}
	return backend.Wrap(sys, bs)
}

// contextPolicy resolves the tenant's initial policy against the shared
// registry: adopt the stored policy for the context when one exists, train
// and publish one when the spec asks for it, or fall back to the policy of
// the nearest stored context (same workload mix preferred, then closest
// resource level and client population). The returned warm flag reports a
// true warm start — a policy that existed before this admission. Either way
// the policy joins the in-memory store, so restored snapshots can re-bind it
// by name and running agents can switch to it on context changes.
func (f *Fleet) contextPolicy(spec TenantSpec, ctx system.Context, key string) (*core.Policy, bool, error) {
	if f.registry == nil {
		return nil, false, nil
	}
	pol, err := f.registry.Get(key)
	if err != nil {
		return nil, false, err
	}
	warm := pol != nil
	if pol == nil && spec.TrainPolicy {
		if pol, err = f.registry.Put(key, f.recipe(spec, ctx, key)); err != nil {
			return nil, false, err
		}
	}
	if pol == nil && !spec.NoWarmStart {
		// Nearest-context fallback: an approximate Q-seed beats a cold table,
		// and online learning corrects the residual error (the paper's policy
		// reuse argument, extended across neighboring contexts).
		near, nkey, nerr := f.registry.Nearest(ctx, key)
		if nerr != nil {
			return nil, false, nerr
		}
		if near != nil {
			pol = near
			warm = true
			f.traceEvent(telemetry.Event{
				Kind:   telemetry.KindPolicySwitch,
				Tenant: spec.Name,
				Policy: near.Name(),
				Detail: fmt.Sprintf("nearest-context warm start: %s -> %s", key, nkey),
			})
		}
	}
	if pol == nil {
		return nil, false, nil
	}
	if f.policies.ByName(pol.Name()) == nil {
		f.policies.Add(pol)
	}
	if spec.NoWarmStart {
		return nil, false, nil
	}
	return pol, warm, nil
}

// recipe is the registry recipe of the tenant's context policy: the paper's
// policy initialization on the analytic queueing surface, seeded by the
// context key so every tenant training the same context produces the same
// policy bytes.
func (f *Fleet) recipe(spec TenantSpec, ctx system.Context, key string) core.Recipe {
	rec := core.RecipeFor(ctx)
	rec.SLASeconds = cmp.Or(spec.SLASeconds, f.opts.SLASeconds)
	rec.Seed = deriveSeed(f.opts.Seed, "policy:"+key)
	if f.opts.TrainInit != nil {
		rec.CoarseLevels = f.opts.TrainInit.CoarseLevels
		rec.Batch = f.opts.TrainInit.Batch
	}
	return rec
}

// restore rebuilds a tenant's live state from a checkpoint: re-apply the
// snapshot's configuration (through the fault wrapper's inner system, so the
// injection schedule is not consumed twice), import the backend's state blob,
// then restore the agent. On success the tenant resumes exactly where the
// snapshot left off.
func (f *Fleet) restore(t *Tenant, ck *Checkpoint, path string) error {
	cfg := config.Config(append([]int(nil), ck.Agent.Config...))
	target := t.built.System
	if t.built.Faulty != nil {
		target = t.built.Faulty.Inner()
	}
	if err := target.Apply(context.Background(), cfg); err != nil {
		return fmt.Errorf("re-apply config %s: %w", cfg.Key(), err)
	}
	if len(ck.System) > 0 {
		snap, ok := t.built.System.(system.Snapshottable)
		if !ok {
			return fmt.Errorf("checkpoint has system state but backend %q cannot import it", t.spec.Backend)
		}
		if err := snap.ImportState(ck.System); err != nil {
			return fmt.Errorf("import system state: %w", err)
		}
	}
	if err := t.agent.RestoreState(ck.Agent); err != nil {
		return err
	}
	t.mu.Lock()
	t.interval = ck.Interval
	t.warmStarted = ck.WarmStarted
	t.restored = true
	t.mu.Unlock()
	if f.tel != nil {
		f.tel.restores.Inc()
	}
	f.traceEvent(telemetry.Event{
		Kind:      telemetry.KindCheckpoint,
		Tenant:    t.spec.Name,
		Iteration: ck.Interval,
		Detail:    "restored from " + path,
	})
	return nil
}

// RunRound runs one scheduling round: every shard advances its running
// tenants sequentially in shard admission order, shards run concurrently on
// the worker pool, and each shard handles its own post-step bookkeeping
// (capacity warm starts, due checkpoints, drain completion). Policies
// discovered by in-round bookkeeping join the shared store only here, at the
// round barrier, in sorted name order. Step failures fail the tenant, not the
// round; only bookkeeping errors (checkpoint I/O, warm-start lookups) are
// returned, joined in shard order.
func (f *Fleet) RunRound() error {
	f.roundMu.Lock()
	defer f.roundMu.Unlock()

	shardErrs := make([][]error, len(f.shards))
	_ = parallel.ForEach(parallel.Options{Procs: f.opts.Procs, Telemetry: f.opts.Telemetry},
		len(f.shards), func(i int) error {
			shardErrs[i] = f.shards[i].runRound(f)
			return nil
		})

	f.mu.Lock()
	f.rounds++
	f.mu.Unlock()
	if f.tel != nil {
		f.tel.rounds.Inc()
	}
	f.applyPendingPolicies()

	var errs []error
	for _, se := range shardErrs {
		errs = append(errs, se...)
	}
	return errors.Join(errs...)
}

// applyPendingPolicies moves the round's deferred policy discoveries into the
// shared store at the barrier, sorted by name and deduplicated, so the store's
// contents are a deterministic function of round count — never of shard
// interleaving.
func (f *Fleet) applyPendingPolicies() {
	f.pendingMu.Lock()
	pend := f.pending
	f.pending = nil
	f.pendingMu.Unlock()
	if len(pend) == 0 {
		return
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].Name() < pend[j].Name() })
	for _, p := range pend {
		if f.policies.ByName(p.Name()) == nil {
			f.policies.Add(p)
		}
	}
}

// capacityWarmStart is the SQLR-style per-level policy memory: when a
// tenant's capacity scaled during the round just run, look up the registry
// policy trained for its workload at the new level and force the agent onto
// it, so a revisited level resumes from learned state instead of relearning
// from scratch. A level with no stored policy keeps the current Q-table.
// Running post-barrier in admission order keeps registry access and trace
// sequences deterministic at any Procs.
func (f *Fleet) capacityWarmStart(t *Tenant) error {
	c := t.built.Capacity
	if c == nil || c.Ordinal() == t.capOrdinal {
		return nil
	}
	old := t.capOrdinal
	t.capOrdinal = c.Ordinal()
	key := ContextKey(system.Context{Workload: t.ctx.Workload, Level: c.AppLevel()})
	pol, err := f.lookupPolicy(key, f.deferPolicy)
	if err != nil {
		return fmt.Errorf("fleet: tenant %s: warm start after scale: %w", t.spec.Name, err)
	}
	if pol == nil {
		return nil
	}
	t.agent.ForcePolicy(pol)
	if f.tel != nil {
		f.tel.warmStarts.Inc()
	}
	f.traceEvent(telemetry.Event{
		Kind:   telemetry.KindCapacity,
		Tenant: t.spec.Name,
		Level:  c.AppLevel().Name,
		Detail: fmt.Sprintf("scaled %d -> %d, warm start from %s", old, c.Ordinal(), pol.Name()),
	})
	return nil
}

// lookupPolicy resolves a context key against the in-memory store first,
// then the shared registry, and hands a registry hit to join, which adds it
// to the store. Returns (nil, nil) when no policy exists for the key. The
// admin path joins immediately (f.policies.Add); in-round shard bookkeeping
// must join through deferPolicy, so concurrent shards' in-flight store reads
// never observe a mid-round add.
func (f *Fleet) lookupPolicy(key string, join func(*core.Policy)) (*core.Policy, error) {
	if pol := f.policies.ByName(key); pol != nil {
		return pol, nil
	}
	if f.registry == nil {
		return nil, nil
	}
	p, err := f.registry.Get(key)
	if err != nil || p == nil {
		return nil, err
	}
	join(p)
	return p, nil
}

// deferPolicy queues a policy to join the shared store at the round barrier
// (applyPendingPolicies).
func (f *Fleet) deferPolicy(p *core.Policy) {
	f.pendingMu.Lock()
	f.pending = append(f.pending, p)
	f.pendingMu.Unlock()
}

// Run executes up to rounds scheduling rounds, stopping early when no tenant
// can make progress. It returns the number of rounds run and the first
// checkpoint error encountered (the loop keeps going past checkpoint errors).
func (f *Fleet) Run(rounds int) (int, error) {
	var firstErr error
	for i := 0; i < rounds; i++ {
		if f.Active() == 0 {
			return i, firstErr
		}
		if err := f.RunRound(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return rounds, firstErr
}

// checkpoint snapshots one tenant to the store. Call with the tenant's run
// lock held or from the admission path (before the tenant is visible to
// rounds).
func (f *Fleet) checkpoint(t *Tenant, reason string) error {
	st, err := t.agent.ExportState()
	if err != nil {
		return fmt.Errorf("fleet: checkpoint %s: %w", t.spec.Name, err)
	}
	var sysBlob []byte
	if snap, ok := t.built.System.(system.Snapshottable); ok {
		if sysBlob, err = snap.ExportState(); err != nil {
			return fmt.Errorf("fleet: checkpoint %s: %w", t.spec.Name, err)
		}
	}
	t.mu.Lock()
	ck := &Checkpoint{
		Tenant:      t.spec.Name,
		Spec:        t.spec,
		Interval:    t.interval,
		WarmStarted: t.warmStarted,
		Agent:       st,
		System:      sysBlob,
	}
	t.mu.Unlock()
	path, err := f.ckpts.Write(ck)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint %s: %w", t.spec.Name, err)
	}
	t.mu.Lock()
	t.checkpoints++
	t.mu.Unlock()
	if f.tel != nil {
		f.tel.checkpoints.Inc()
	}
	f.traceEvent(telemetry.Event{
		Kind:      telemetry.KindCheckpoint,
		Tenant:    t.spec.Name,
		Iteration: ck.Interval,
		Detail:    reason + ": " + path,
	})
	return nil
}

// CheckpointNow snapshots the named tenant immediately, outside the periodic
// cadence. It takes only the tenant's run lock, so it waits at most for that
// tenant's current step — never for the rest of its shard or the round.
func (f *Fleet) CheckpointNow(name string) error {
	t := f.Tenant(name)
	if t == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	if f.ckpts == nil {
		return ErrCheckpointsDisabled
	}
	t.run.Lock()
	defer t.run.Unlock()
	return f.checkpoint(t, "manual")
}

// Pause holds a running tenant: it keeps its state but is skipped by rounds.
func (f *Fleet) Pause(name string) error {
	return f.setState(name, StatePaused, "paused by admin", StateRunning)
}

// Resume releases a paused tenant back into the scheduling rounds.
func (f *Fleet) Resume(name string) error {
	return f.setState(name, StateRunning, "resumed by admin", StatePaused)
}

// Drain asks a tenant to stop after its current interval: the next round
// skips it, writes its final checkpoint, and marks it stopped.
func (f *Fleet) Drain(name string) error {
	return f.setState(name, StateDraining, "drain requested", StateRunning, StatePaused)
}

// setState performs one admin FSM transition, validating the source state.
func (f *Fleet) setState(name string, to State, detail string, from ...State) error {
	t := f.Tenant(name)
	if t == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	t.mu.Lock()
	cur := t.state
	ok := false
	for _, s := range from {
		if cur == s {
			ok = true
			break
		}
	}
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: tenant %s is %s, cannot move to %s", ErrBadTransition, name, cur, to)
	}
	t.setStateLocked(to)
	t.mu.Unlock()
	f.noteTransition(t.spec.Name, cur, to, detail)
	return nil
}

// transition moves a tenant to a new state unconditionally (internal paths
// whose source state is already established).
func (f *Fleet) transition(t *Tenant, to State, detail string) {
	t.mu.Lock()
	from := t.state
	t.setStateLocked(to)
	t.mu.Unlock()
	f.noteTransition(t.spec.Name, from, to, detail)
}

// noteTransition emits the lifecycle trace event of an FSM move.
func (f *Fleet) noteTransition(name string, from, to State, detail string) {
	f.traceEvent(telemetry.Event{
		Kind:   telemetry.KindLifecycle,
		Tenant: name,
		Detail: fmt.Sprintf("%s -> %s (%s)", from, to, detail),
	})
}

// traceEvent adds ev to the fleet trace when one is wired.
func (f *Fleet) traceEvent(ev telemetry.Event) {
	if f.trace != nil {
		f.trace.Add(ev)
	}
}

// ForcePolicy installs the registry policy stored under key as the named
// tenant's initial policy, immediately and regardless of the violation
// counter — the admin override for operators who know the context changed.
// The switch takes only the tenant's run lock, so it lands between that
// tenant's steps without waiting on the rest of the fleet.
func (f *Fleet) ForcePolicy(name, key string) error {
	t := f.Tenant(name)
	if t == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	pol, err := f.lookupPolicy(key, f.policies.Add)
	if err != nil {
		return err
	}
	if pol == nil {
		return fmt.Errorf("%w: %q", ErrNoPolicy, key)
	}
	t.run.Lock()
	defer t.run.Unlock()
	switch st := t.State(); st {
	case StateStopped, StateFailed:
		return fmt.Errorf("%w: tenant %s is %s", ErrBadTransition, name, st)
	}
	t.agent.ForcePolicy(pol)
	return nil
}

// Shutdown drains every active tenant: each gets a final checkpoint (when
// checkpointing is enabled) and moves to StateStopped. Then every live
// tenant's server shuts down, stopped and failed tenants' included. Safe to
// call multiple times; the daemon runs it on SIGINT/SIGTERM after the current
// round.
func (f *Fleet) Shutdown() error {
	// Cancel before waiting for the round lock: a live tenant mid-interval
	// aborts its measurement instead of holding the drain for the rest of
	// the window.
	f.stopRun()
	f.roundMu.Lock()
	defer f.roundMu.Unlock()
	var errs []error
	for _, t := range f.Tenants() {
		switch t.State() {
		case StateStopped, StateFailed:
			continue
		}
		t.run.Lock()
		if f.ckpts != nil {
			if err := f.checkpoint(t, "shutdown"); err != nil {
				errs = append(errs, err)
			}
		}
		// Stop the tenant even when its final checkpoint failed: shutdown
		// must converge, and the error still surfaces to the caller.
		f.transition(t, StateStopped, "fleet shutdown")
		t.run.Unlock()
	}
	// A canceled measurement can leave requests in flight; past the bound
	// the server cuts them, which is no failure of the drain.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, t := range f.Tenants() {
		_ = t.built.Close(ctx)
	}
	return errors.Join(errs...)
}
