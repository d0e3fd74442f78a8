// Package bench regenerates the paper's evaluation: one function per figure,
// each returning a Figure with the same series the paper plots. The harness
// owns policy training (with caching), system construction and agent driving
// so every experiment is reproducible from a single seed.
package bench

import (
	"context"
	"fmt"
	"sync"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/core"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// Options configure a Harness.
type Options struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Quick trades fidelity for speed: shorter measurement windows, fewer
	// averaging seeds and a coarser policy-sampling lattice. Used by tests;
	// the reported figures run with Quick=false.
	Quick bool
	// SimSampling trains initial policies by sampling the simulator (the
	// paper's offline data collection). When false the harness samples the
	// analytic queueing surface instead, which is orders of magnitude
	// faster and yields policies of the same shape.
	SimSampling bool
	// Procs bounds the worker goroutines the harness fans sweeps out on:
	// coarse-lattice policy sampling, seed averaging, best-config searches
	// and per-context store training. Zero or negative uses every CPU; 1
	// runs sequentially. Every unit of work draws from RNG streams split
	// before dispatch, so results are bit-identical for any value.
	Procs int
	// Agent hyper-parameters; zero value uses core.DefaultOptions.
	Agent core.Options
}

// policyEntry is one cached (or in-flight) policy training. The once gate
// dedups concurrent requests for the same training so parallel figure
// generation never trains a policy twice.
type policyEntry struct {
	once sync.Once
	p    *core.Policy
	err  error
}

// Harness runs the paper's experiments.
type Harness struct {
	opts  Options
	space *config.Space

	mu sync.Mutex
	// policies caches trainings by policy name and recipe, every input a
	// policy's bytes depend on, so two different trainings never share an
	// entry.
	policies map[namedRecipe]*policyEntry

	// surf memoizes response-surface evaluations: figures that revisit a
	// (context, configuration) point — across sweeps, seeds and figures —
	// solve or simulate it once. Tests nil it for the uncached reference.
	surf *surface.Cache

	tel           *telemetry.Registry
	policyTrains  *telemetry.Counter
	policyHits    *telemetry.Counter
	scheduleSteps *telemetry.Counter
}

// New builds a harness.
func New(opts Options) *Harness {
	if opts.Agent == (core.Options{}) {
		opts.Agent = core.DefaultOptions()
	}
	tel := telemetry.NewRegistry()
	return &Harness{
		opts:     opts,
		space:    config.Default(),
		policies: make(map[namedRecipe]*policyEntry),
		surf:     surface.New(tel),
		tel:      tel,
		policyTrains: tel.Counter("bench_policy_trainings_total",
			"Initial policies trained (offline Algorithm 2 passes).", nil),
		policyHits: tel.Counter("bench_policy_cache_hits_total",
			"Policy requests served from the harness cache.", nil),
		scheduleSteps: tel.Counter("bench_schedule_steps_total",
			"Agent iterations driven through RunSchedule.", nil),
	}
}

// Telemetry returns the harness registry. Experiment commands snapshot it at
// exit; TunerFactory implementations may also register agent instruments on
// it to observe Q-learning convergence during a schedule.
func (h *Harness) Telemetry() *telemetry.Registry { return h.tel }

// Parallel returns the pool options the harness fans work out with, for
// callers (e.g. cmd/racbench) that parallelize units above the harness —
// whole figures — under the same Procs bound and pool telemetry.
func (h *Harness) Parallel() parallel.Options {
	return parallel.Options{Procs: h.opts.Procs, Telemetry: h.tel}
}

// averagingSeeds returns how many independent seeds sweeps average over.
func (h *Harness) averagingSeeds() int {
	if h.opts.Quick {
		return 2
	}
	return 4
}

// coarseLevels returns the per-group sampling granularity for policy
// initialization.
func (h *Harness) coarseLevels() int {
	if h.opts.Quick {
		return 3
	}
	return 4
}

// iterations scales a full-size iteration count down in quick mode.
func (h *Harness) iterations(full int) int {
	if h.opts.Quick {
		n := full / 3
		if n < 4 {
			n = 4
		}
		return n
	}
	return full
}

// newSystem builds a simulated system in the context, seeded from the
// harness seed and salt and measured over the harness's windows.
func (h *Harness) newSystem(ctx system.Context, salt uint64) (*system.Simulated, error) {
	return h.simulated(ctx, h.seed(salt), h.simSampling(), 0)
}

// seed derives a system seed from the harness seed and a per-run salt.
func (h *Harness) seed(salt uint64) uint64 { return h.opts.Seed*2654435761 + salt }

// simulated builds a simulated system in the context, measured over smp's
// windows, with goodput counted against slo (0 = none).
func (h *Harness) simulated(ctx system.Context, seed uint64, smp core.Sampling, slo float64) (*system.Simulated, error) {
	return system.NewSimulated(system.SimulatedOptions{
		Space:          h.space,
		Context:        ctx,
		Seed:           seed,
		SettleSeconds:  smp.SettleSeconds,
		MeasureSeconds: smp.MeasureSeconds,
		SLOSeconds:     slo,
	})
}

// measureConfig measures one configuration in a fresh system (averaged over
// the harness's averaging seeds). The per-seed measurements run through the
// worker pool: each seed's system derives its RNG purely from the seed index,
// and the average is reduced in index order, so the result is bit-identical
// for any Procs.
func (h *Harness) measureConfig(ctx system.Context, cfg config.Config, seeds int) (float64, error) {
	if seeds < 1 {
		seeds = 1
	}
	smp := h.simSampling()
	rts, err := parallel.Map(h.Parallel(), seeds, func(s int) (float64, error) {
		salt := uint64(s)*7919 + uint64(len(cfg))
		return system.MeasureSimulated(h.space, ctx, h.seed(salt), smp.SettleSeconds, smp.MeasureSeconds, cfg, h.surf)
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, rt := range rts {
		sum += rt
	}
	return sum / float64(seeds), nil
}

// simSampling returns the simulator backend at the harness's measurement
// windows.
func (h *Harness) simSampling() core.Sampling {
	if h.opts.Quick {
		return core.Sampling{Simulator: true, SettleSeconds: 15, MeasureSeconds: 60}
	}
	return core.Sampling{Simulator: true, SettleSeconds: 30, MeasureSeconds: 270}
}

// optsSampling returns the backend selected by Options.SimSampling.
func (h *Harness) optsSampling() core.Sampling {
	if h.opts.SimSampling {
		return h.simSampling()
	}
	return core.Sampling{}
}

// namedRecipe is one cached policy training: the policy's name and recipe.
type namedRecipe struct {
	name string
	core.Recipe
}

// Policy returns (training and caching on first use) the initial policy for
// a context, sampling the backend selected by Options.SimSampling.
func (h *Harness) Policy(ctx system.Context) (*core.Policy, error) {
	return h.policySampled(ctx, h.optsSampling())
}

// policySampled is Policy with an explicit sampling backend: the workload-
// scenario benches always sim-sample their warm start (the schedule replays
// on the simulator, so Algorithm 2 must coarsely sample that same system —
// the analytic surface ranks configurations differently near the knee).
// Both backends fan the coarse sweep out on the harness pool through the
// harness memo.
func (h *Harness) policySampled(ctx system.Context, smp core.Sampling) (*core.Policy, error) {
	rec := core.RecipeFor(ctx)
	rec.SLASeconds = h.opts.Agent.SLASeconds
	rec.CoarseLevels = h.coarseLevels()
	rec.Seed = h.opts.Seed ^ 0xBEEF
	rec.Sampling = smp
	key := namedRecipe{ctx.Name, rec}
	h.mu.Lock()
	e, ok := h.policies[key]
	if !ok {
		e = &policyEntry{}
		h.policies[key] = e
	}
	h.mu.Unlock()
	if ok {
		h.policyHits.Inc()
	}
	e.once.Do(func() {
		h.policyTrains.Inc()
		if e.p, e.err = key.Train(key.name, h.space, h.Parallel(), h.surf); e.err != nil {
			e.err = fmt.Errorf("bench: learn policy for %s: %w", key.name, e.err)
		}
	})
	return e.p, e.err
}

// Store builds a policy store covering the given contexts, training them
// concurrently on the harness pool. Policies are published in argument
// order, so Match tie-breaking is reproducible.
func (h *Harness) Store(contexts ...system.Context) (*core.PolicyStore, error) {
	return h.storeSampled(h.optsSampling(), contexts...)
}

// storeSampled is Store with an explicit sampling backend (see
// policySampled).
func (h *Harness) storeSampled(smp core.Sampling, contexts ...system.Context) (*core.PolicyStore, error) {
	policies, err := parallel.Map(h.Parallel(), len(contexts), func(i int) (*core.Policy, error) {
		return h.policySampled(contexts[i], smp)
	})
	if err != nil {
		return nil, err
	}
	store := core.NewPolicyStore()
	for _, p := range policies {
		store.Add(p)
	}
	return store, nil
}

// Phase is one segment of a context schedule.
type Phase struct {
	Context    system.Context
	Iterations int
}

// TunerFactory builds an agent bound to a system.
type TunerFactory func(sys system.System) (core.Tuner, error)

// RunSchedule drives an agent through the context phases on its own
// simulated system, returning one StepResult per iteration. The driver — not
// the agent — applies the context changes, exactly like the paper's testbed
// operator changing traffic or VM allocation.
func (h *Harness) RunSchedule(mk TunerFactory, phases []Phase, salt uint64) ([]core.StepResult, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("bench: empty schedule")
	}
	sys, err := h.newSystem(phases[0].Context, salt)
	if err != nil {
		return nil, err
	}
	tuner, err := mk(sys)
	if err != nil {
		return nil, err
	}
	var results []core.StepResult
	for pi, phase := range phases {
		if pi > 0 {
			if err := system.ApplyContext(sys, phase.Context); err != nil {
				return nil, err
			}
		}
		for i := 0; i < phase.Iterations; i++ {
			res, err := tuner.Step(context.Background())
			if err != nil {
				return nil, fmt.Errorf("bench: phase %d iter %d: %w", pi, i, err)
			}
			h.scheduleSteps.Inc()
			results = append(results, res)
		}
	}
	return results, nil
}

// bestGroupedConfig searches the coarse grouped sublattice for the
// configuration with the lowest measured response time in the context — the
// paper's "best configuration (out of our test cases)".
func (h *Harness) bestGroupedConfig(ctx system.Context) (config.Config, float64, error) {
	// Solve the analytic surface for every sublattice point on the worker
	// pool, then reduce with strict less-than in enumeration order — ties
	// keep the earliest candidate under any worker count.
	groups, err := h.space.Grouping()
	if err != nil {
		return nil, 0, err
	}
	cfgs, _, err := groups.Coarse(h.coarseLevels())
	if err != nil {
		return nil, 0, err
	}
	rts := make([]float64, len(cfgs))
	if err := core.SampleCoarse(h.Parallel(), system.AnalyticSampler(h.space, ctx, h.surf), cfgs, nil, rts); err != nil {
		return nil, 0, err
	}
	best := 0
	for i, rt := range rts {
		if rt < rts[best] {
			best = i
		}
	}
	return cfgs[best], rts[best], nil
}

// contextWith returns a paper context overridden to the given mix or level.
func contextWith(mix tpcw.Mix, level vmenv.Level) system.Context {
	return system.Context{
		Name:     fmt.Sprintf("%s@%s", mix, level.Name),
		Workload: tpcw.Workload{Mix: mix, Clients: system.DefaultClients},
		Level:    level,
	}
}
