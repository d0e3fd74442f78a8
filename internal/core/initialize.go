package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/parallel"
	"github.com/rac-project/rac/internal/regression"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/telemetry"
)

// StreamSampler measures one configuration using a dedicated RNG stream.
// Streams are split from the initialization seed before any sampling is
// dispatched (one per coarse configuration, in enumeration order), so a
// sampler that derives all of its randomness — simulator seeds included —
// from the supplied stream produces bit-identical results for any
// InitOptions.Procs, including 1. LearnPolicyStream runs it as a batch sampler
// over chunks of one, so each configuration is its own unit on the worker
// pool; it must not touch shared mutable state when Procs exceeds 1.
type StreamSampler func(cfg config.Config, rng *sim.RNG) (float64, error)

// batchSampler measures a contiguous chunk of coarse configurations in one
// call, writing out[i] for cfgs[i] (len(out) == len(cfgs) == len(streams)).
// Batching exists so array-shaped backends — the analytic queueing surface
// above all — can reuse solver scratch buffers across a whole chunk instead
// of allocating per configuration. A batch sampler must return exactly the
// values the equivalent StreamSampler would (bit for bit): chunk boundaries
// are an implementation detail of the dispatch and must never show in the
// output. streams[i] is cfgs[i]'s pre-split RNG stream, as in StreamSampler.
type batchSampler func(cfgs []config.Config, streams []*sim.RNG, out []float64) error

// batchChunkSize is the number of coarse configurations handed to one
// InitOptions.BatchSampler call. Small enough that even a quick-mode sweep
// (3^G points) fans out across workers, large enough to amortize per-chunk
// solver setup.
const batchChunkSize = 16

// InitOptions configure LearnPolicyStream.
type InitOptions struct {
	// CoarseLevels is the number of coarse sample values per parameter
	// group (paper §4.1 "coarse granularity"); at least 2, default 4.
	CoarseLevels int
	// Batch configures the offline RL pass over the group lattice. The zero
	// value uses DefaultOfflineBatch; any other value needs valid Params and
	// MaxSweeps in [1, 400] (checkSchedule).
	Batch mdp.BatchConfig
	// SLASeconds is the reward reference; default 2 s (DefaultOptions).
	SLASeconds float64
	// Seed drives the per-sample RNG streams handed to a StreamSampler. The
	// offline pass is a deterministic solve and draws nothing.
	Seed uint64
	// Procs bounds the worker goroutines sampling the coarse sublattice and
	// pricing the group lattice's rewards. Zero or negative uses every CPU; 1
	// runs sequentially. Results are identical for every value when the
	// sampler honors its contract.
	Procs int
	// BatchSampler, when non-nil, samples the coarse sweep in contiguous
	// chunks of batchChunkSize configurations, one call per chunk on the
	// worker pool. It is the alternative to LearnPolicyStream's
	// StreamSampler argument, which must then be nil.
	BatchSampler batchSampler
	// Telemetry, when non-nil, receives the parallel pool's instruments
	// (rac_parallel_*) for the sampling sweep.
	Telemetry *telemetry.Registry
}

// DefaultOfflineBatch returns the schedule of the offline RL pass over the
// group lattice when InitOptions.Batch is zero: mdp.DefaultBatchConfig — the
// paper's offline hyper-parameters (γ=0.9, ε=0.1) — with a 400-sweep bound and
// a 0.005 convergence threshold. The solve meets the threshold in about fifteen
// sweeps on every Table-2 context; the bound is a safety net.
func DefaultOfflineBatch() mdp.BatchConfig {
	batch := mdp.DefaultBatchConfig()
	batch.MaxSweeps = 400
	batch.Theta = 0.005
	return batch
}

// checkSchedule refuses an offline schedule the solve cannot run in bounded
// time: hyper-parameters out of range, or a sweep bound outside
// [1, DefaultOfflineBatch().MaxSweeps]. A schedule can come from outside the
// program — a policy document, a fleet registry recipe — so both training
// and loading check it before any work.
func checkSchedule(batch mdp.BatchConfig) error {
	if err := batch.Params.Validate(); err != nil {
		return fmt.Errorf("core: offline schedule: %w", err)
	}
	if bound := DefaultOfflineBatch().MaxSweeps; batch.MaxSweeps < 1 || batch.MaxSweeps > bound {
		return fmt.Errorf("core: offline schedule needs MaxSweeps in [1, %d], got %d", bound, batch.MaxSweeps)
	}
	return nil
}

// SampleCoarse measures cfgs on the worker pool as LearnPolicyStream samples
// a coarse sublattice: batchChunkSize configurations to a call of sample,
// which writes out[lo:hi] for cfgs[lo:hi] (and streams[lo:hi] when streams
// is non-nil), so out is in enumeration order for any worker count.
func SampleCoarse(pool parallel.Options, sample func(cfgs []config.Config, streams []*sim.RNG, out []float64) error,
	cfgs []config.Config, streams []*sim.RNG, out []float64) error {
	return sampleChunks(pool, sample, batchChunkSize, cfgs, streams, out)
}

// sampleChunks is SampleCoarse with chunk configurations to a call.
func sampleChunks(pool parallel.Options, sample batchSampler, chunk int, cfgs []config.Config, streams []*sim.RNG, out []float64) error {
	return parallel.ForEach(pool, (len(cfgs)+chunk-1)/chunk, func(c int) error {
		lo, hi := c*chunk, min((c+1)*chunk, len(cfgs))
		var st []*sim.RNG
		if streams != nil {
			st = streams[lo:hi]
		}
		if err := sample(cfgs[lo:hi], st, out[lo:hi]); err != nil {
			return fmt.Errorf("core: sample chunk [%d,%d) from %s: %w", lo, hi, cfgs[lo].Key(), err)
		}
		return nil
	})
}

// LearnPolicyStream runs the paper's policy-initialization procedure
// (Algorithm 2) for one system context:
//
//  1. group parameters with similar characteristics,
//  2. sample the performance of coarse grouped configurations,
//  3. fit a polynomial regression predicting unvisited configurations,
//  4. train an initial Q-table offline over the group lattice.
//
// Exactly one of sample and opts.BatchSampler measures the coarse
// sublattice (CoarseLevels^G configurations), each configuration with its own
// pre-split RNG stream, so the policy is independent of opts.Procs and of
// sampling order.
func LearnPolicyStream(name string, space *config.Space, sample StreamSampler, opts InitOptions) (*Policy, error) {
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	batch, chunk := opts.BatchSampler, batchChunkSize
	switch {
	case sample != nil && batch != nil:
		return nil, errors.New("core: both a StreamSampler and InitOptions.BatchSampler")
	case sample != nil:
		batch, chunk = func(cfgs []config.Config, streams []*sim.RNG, out []float64) (err error) {
			out[0], err = sample(cfgs[0], streams[0])
			return err
		}, 1
	case batch == nil:
		return nil, errors.New("core: nil sampler")
	}
	offline := opts.Batch
	if offline == (mdp.BatchConfig{}) {
		offline = DefaultOfflineBatch()
	}
	if err := checkSchedule(offline); err != nil {
		return nil, err
	}
	k := opts.CoarseLevels
	if k == 0 {
		k = 4
	}
	if k < 2 {
		return nil, fmt.Errorf("core: need at least 2 coarse levels, got %d", k)
	}
	sla := opts.SLASeconds
	if sla == 0 {
		sla = DefaultOptions().SLASeconds
	}
	if sla <= 0 {
		return nil, fmt.Errorf("core: non-positive SLA %v", sla)
	}

	groups, err := space.Grouping()
	if err != nil {
		return nil, err
	}

	// 1–2. Enumerate the coarse grouped sublattice, then sample it in chunks
	// on the worker pool. Streams are split per configuration before dispatch
	// (the determinism contract), and workers write disjoint sub-slices of
	// ys, so the regression input is in enumeration order for any worker
	// count and chunk scheduling.
	cfgs, xs, err := groups.Coarse(k)
	if err != nil {
		return nil, err
	}
	streams := sim.NewRNG(opts.Seed ^ 0x5a3b9d2e8c71f604).SplitN(len(cfgs))
	ys := make([]float64, len(cfgs))
	pool := parallel.Options{Procs: opts.Procs, Telemetry: opts.Telemetry}
	if err := sampleChunks(pool, batch, chunk, cfgs, streams, ys); err != nil {
		return nil, err
	}
	// A response time that is NaN or +Inf would poison the fit below, and
	// with it every prediction and reward; zero and negative ones are
	// clamped there instead.
	for i, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 1) {
			return nil, fmt.Errorf("core: sample %s measured a response time of %v", cfgs[i].Key(), y)
		}
	}

	// 3. Regression-based prediction of unvisited configurations. The fit is
	// done in log space: response times span orders of magnitude once a
	// sampled configuration hits an overload cliff, and a log-space quadratic
	// stays positive and keeps resolution in the well-configured region.
	logYs := make([]float64, len(ys))
	for i, y := range ys {
		logYs[i] = math.Log(math.Max(y, 1e-3))
	}
	quad, err := regression.FitQuadratic(xs, logYs)
	if err != nil {
		return nil, fmt.Errorf("core: regression fit: %w", err)
	}
	floor := slices.Min(ys) * 0.25
	if floor <= 0 {
		floor = 0.01
	}
	p := &Policy{name: name, space: space, groups: groups, quad: quad, sla: sla, floorRT: floor}

	// 4. Offline RL over the group lattice, solved to the fixed point
	// Algorithm 1's ε-greedy SARSA estimates (Policy.solve). Seeded Q values
	// must sit on the same asymptotic scale (≈ r/(1−γ)) as the values the
	// online agent keeps refreshing, or unvisited states would look
	// artificially poor and the agent would cling to its visited region.
	if err := p.solve(offline, parallel.Options{Procs: opts.Procs}); err != nil {
		return nil, err
	}
	return p, nil
}
