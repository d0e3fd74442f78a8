package system

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/queueing"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/surface"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// Analytic is a System backed by the MVA queueing model: instantaneous,
// deterministic measurements (optionally perturbed by lognormal noise so
// agents can be exercised against stochastic readings without paying
// simulation time).
type Analytic struct {
	space    *config.Space
	cal      webtier.Calibration
	cfg      config.Config
	workload tpcw.Workload
	level    vmenv.Level
	noise    float64
	rng      *sim.RNG
	// surf memoizes solved points across every Analytic sharing it (nil =
	// solve every Measure); surfPrefix is the space's part of the memo key.
	surf       *surface.Cache
	surfPrefix string
}

// AnalyticOptions configure NewAnalytic.
type AnalyticOptions struct {
	// Space defaults to config.Default().
	Space *config.Space
	// Initial defaults to the space default configuration.
	Initial config.Config
	// Context defaults to context-1.
	Context Context
	// NoiseSigma adds multiplicative lognormal noise with the given sigma to
	// measured response times (0 = deterministic).
	NoiseSigma float64
	// Seed drives the noise stream.
	Seed uint64
	// Surface, when non-nil, memoizes the deterministic part of Measure — the
	// solved (mean RT, throughput) of a (space, configuration, workload,
	// level) point — so systems sharing one cache solve each point once. The
	// noise draw stays outside the memo: measurements and ExportState are
	// byte-identical with or without it.
	Surface *surface.Cache
}

var (
	_ System     = (*Analytic)(nil)
	_ Adjustable = (*Analytic)(nil)
)

// NewAnalytic builds an analytic system in the given context.
func NewAnalytic(opts AnalyticOptions) (*Analytic, error) {
	space := opts.Space
	if space == nil {
		space = config.Default()
	}
	cfg := opts.Initial
	if cfg == nil {
		cfg = space.DefaultConfig()
	}
	if err := space.Validate(cfg); err != nil {
		return nil, err
	}
	ctx := opts.Context
	if ctx.Workload.Clients == 0 {
		ctx = Table2()[0]
	}
	a := &Analytic{
		space:    space,
		cal:      webtier.DefaultCalibration(),
		cfg:      cfg.Clone(),
		workload: ctx.Workload,
		level:    ctx.Level,
		noise:    opts.NoiseSigma,
		rng:      sim.NewRNG(opts.Seed),
		surf:     opts.Surface,
	}
	if a.surf != nil {
		a.surfPrefix = surfacePrefix("analytic", space)
	}
	return a, nil
}

// surfacePrefix is the backend's and the space's part of the memo key.
// ParamsFromConfig reads values by parameter identity, so which parameter
// sits at which position is an input of every measurement.
func surfacePrefix(backend string, space *config.Space) string {
	prefix := []byte(backend)
	for _, d := range space.Defs() {
		prefix = append(prefix, ':')
		prefix = strconv.AppendInt(prefix, int64(d.Param), 10)
	}
	return string(prefix)
}

// AnalyticSampler returns the batch sampler policy initialization
// (core.InitOptions.BatchSampler) drives over the analytic surface of one
// context, under the default calibration: noise-free mean response times, one
// WebsiteSolver's scratch buffers per chunk, each point looked up through
// surf under the key Analytic.Measure uses — so a trainer and the systems it
// trains for share solved points. surf may be nil. The sampler is safe for
// concurrent use and ignores its RNG streams.
func AnalyticSampler(space *config.Space, ctx Context, surf *surface.Cache) func([]config.Config, []*sim.RNG, []float64) error {
	cal, prefix := webtier.DefaultCalibration(), surfacePrefix("analytic", space)
	return func(cfgs []config.Config, _ []*sim.RNG, out []float64) error {
		ws := queueing.NewWebsiteSolver()
		for i, cfg := range cfgs {
			pt, err := solvePoint(surf, prefix, ws.Solve, space, cal, cfg, ctx.Workload, ctx.Level)
			if err != nil {
				return fmt.Errorf("system: analytic sample %s: %w", cfg.Key(), err)
			}
			out[i] = pt.MeanRT
		}
		return nil
	}
}

// Space returns the configuration space.
func (a *Analytic) Space() *config.Space { return a.space }

// Config returns the applied configuration.
func (a *Analytic) Config() config.Config { return a.cfg.Clone() }

// Apply stores the configuration after validation.
func (a *Analytic) Apply(ctx context.Context, cfg config.Config) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cfg == nil {
		return errNilConfig
	}
	if err := a.space.Validate(cfg); err != nil {
		return err
	}
	a.cfg = cfg.Clone()
	return nil
}

// Measure solves the queueing network for the current configuration.
func (a *Analytic) Measure(ctx context.Context) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	res, err := a.solve()
	if err != nil {
		return Metrics{}, err
	}
	rt := res.MeanRT
	// The noise draw happens here, after the lookup, whether solve hit the
	// memo or not: hits and misses consume a.rng identically.
	if a.noise > 0 {
		rt *= a.rng.LogNormFloat64(-a.noise*a.noise/2, a.noise)
	}
	const interval = 300
	return Metrics{
		MeanRT:          rt,
		P95RT:           rt * 2.5, // heuristic tail factor for the smooth model
		Throughput:      res.Throughput,
		Completed:       int(res.Throughput * interval),
		IntervalSeconds: interval,
	}, nil
}

// solvedPoint is the deterministic part of one measurement: what the memo
// stores per (space, configuration, workload, level) point.
type solvedPoint struct {
	MeanRT     float64
	Throughput float64
}

// solve returns the queueing network's solution for the current
// configuration and context, through the shared memo when one is wired.
func (a *Analytic) solve() (solvedPoint, error) {
	return solvePoint(a.surf, a.surfPrefix, queueing.SolveWebsite, a.space, a.cal, a.cfg, a.workload, a.level)
}

// websiteSolve is the signature queueing.SolveWebsite and a held
// WebsiteSolver's Solve share.
type websiteSolve func(webtier.Calibration, webtier.Params, tpcw.Workload, vmenv.Level) (queueing.WebsiteResult, error)

// solvePoint solves one (space, configuration, workload, level) point,
// through the memo when surf is non-nil. Every input of the solve is in the
// key: the space's parameter layout (prefix), the workload, all three level
// fields and the configuration. The calibration is not — callers pass a memo
// only with the default one.
func solvePoint(surf *surface.Cache, prefix string, solve websiteSolve, space *config.Space,
	cal webtier.Calibration, cfg config.Config, w tpcw.Workload, level vmenv.Level) (solvedPoint, error) {

	solveNow := func() (solvedPoint, error) {
		params, err := webtier.ParamsFromConfig(space, cfg)
		if err != nil {
			return solvedPoint{}, err
		}
		res, err := solve(cal, params, w, level)
		if err != nil {
			return solvedPoint{}, fmt.Errorf("analytic measure: %w", err)
		}
		return solvedPoint{MeanRT: res.MeanRT, Throughput: res.Throughput}, nil
	}
	if surf == nil {
		return solveNow()
	}
	key := appendPoint(append(make([]byte, 0, 96), prefix...), w, level, cfg)
	v, err := surf.DoValue(string(key), func() (any, error) { return solveNow() })
	if err != nil {
		return solvedPoint{}, err
	}
	return v.(solvedPoint), nil
}

// appendPoint appends a measured point to a memo key: the workload, all three
// level fields and the configuration.
func appendPoint(key []byte, w tpcw.Workload, level vmenv.Level, cfg config.Config) []byte {
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(w.Mix), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(w.Clients), 10)
	key = append(key, '|')
	key = append(key, level.Name...)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(level.VCPUs), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(level.MemoryMB), 10)
	for _, v := range cfg {
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(v), 10)
	}
	return key
}

// SetWorkload changes the traffic (driver-side context change).
func (a *Analytic) SetWorkload(w tpcw.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	a.workload = w
	return nil
}

// SetAppLevel reallocates the app/db VM (driver-side context change).
func (a *Analytic) SetAppLevel(level vmenv.Level) error {
	if !level.Valid() {
		return fmt.Errorf("system: invalid level %+v", level)
	}
	a.level = level
	return nil
}

// Workload returns the current traffic.
func (a *Analytic) Workload() tpcw.Workload { return a.workload }

// AppLevel returns the current VM allocation.
func (a *Analytic) AppLevel() vmenv.Level { return a.level }

var _ Snapshottable = (*Analytic)(nil)

// analyticState is the serialized runtime state of an Analytic system.
type analyticState struct {
	Config  []int  `json:"config"`
	Mix     string `json:"mix"`
	Clients int    `json:"clients"`
	Level   string `json:"level"`
	RNG     uint64 `json:"rng"`
}

// ExportState captures the applied configuration, the context and the noise
// stream, so a restored system measures exactly what this one would have.
func (a *Analytic) ExportState() ([]byte, error) {
	return json.Marshal(analyticState{
		Config:  a.cfg.Clone(),
		Mix:     a.workload.Mix.String(),
		Clients: a.workload.Clients,
		Level:   a.level.Name,
		RNG:     a.rng.State(),
	})
}

// ImportState restores state captured by ExportState.
func (a *Analytic) ImportState(blob []byte) error {
	var st analyticState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("analytic state: %w", err)
	}
	mix, err := tpcw.ParseMix(st.Mix)
	if err != nil {
		return fmt.Errorf("analytic state: %w", err)
	}
	level, err := vmenv.ByName(st.Level)
	if err != nil {
		return fmt.Errorf("analytic state: %w", err)
	}
	cfg := config.Config(st.Config)
	if err := a.space.Validate(cfg); err != nil {
		return fmt.Errorf("analytic state: %w", err)
	}
	a.cfg = cfg.Clone()
	a.workload = tpcw.Workload{Mix: mix, Clients: st.Clients}
	a.level = level
	a.rng = sim.RestoreRNG(st.RNG)
	return nil
}
