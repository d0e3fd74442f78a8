package system

import (
	"context"
	"fmt"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// Simulated adapts the webtier discrete-time model to the System interface.
type Simulated struct {
	space *config.Space
	model *webtier.Model
	cfg   config.Config

	// SettleSeconds runs unrecorded after each reconfiguration so pools
	// adapt before measurement; MeasureSeconds is the recorded window. The
	// paper measures in 5-minute intervals; the defaults split that into a
	// 30 s settle and a 270 s recorded window of virtual time.
	settleSeconds  float64
	measureSeconds float64

	// slo is the goodput threshold (SimulatedOptions.SLOSeconds; 0 = none).
	slo float64
}

// SimulatedOptions configure NewSimulated.
type SimulatedOptions struct {
	// Space defaults to config.Default().
	Space *config.Space
	// Initial is the starting configuration; defaults to the space default.
	Initial config.Config
	// Context is the starting workload and VM level; defaults to context-1.
	Context Context
	// Seed drives the simulation.
	Seed uint64
	// SettleSeconds and MeasureSeconds override the measurement windows
	// when positive.
	SettleSeconds  float64
	MeasureSeconds float64
	// SLOSeconds is the goodput threshold: completions at or under it count
	// into Metrics.Goodput (0 = goodput untracked, Goodput stays 0).
	SLOSeconds float64
}

var (
	_ System     = (*Simulated)(nil)
	_ Adjustable = (*Simulated)(nil)
)

// NewSimulated builds a simulated system in the given context.
func NewSimulated(opts SimulatedOptions) (*Simulated, error) {
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
	params, err := webtier.ParamsFromConfig(space, cfg)
	if err != nil {
		return nil, err
	}
	model, err := webtier.New(webtier.Options{
		Params:     &params,
		Workload:   ctx.Workload,
		AppLevel:   ctx.Level,
		Seed:       opts.Seed,
		SLOSeconds: opts.SLOSeconds,
	})
	if err != nil {
		return nil, err
	}
	s := &Simulated{
		space:          space,
		model:          model,
		cfg:            cfg.Clone(),
		settleSeconds:  30,
		measureSeconds: 270,
		slo:            opts.SLOSeconds,
	}
	if opts.SettleSeconds > 0 {
		s.settleSeconds = opts.SettleSeconds
	}
	if opts.MeasureSeconds > 0 {
		s.measureSeconds = opts.MeasureSeconds
	}
	return s, nil
}

// Space returns the configuration space.
func (s *Simulated) Space() *config.Space { return s.space }

// Config returns the applied configuration.
func (s *Simulated) Config() config.Config { return s.cfg.Clone() }

// Apply reconfigures the simulated website. The reconfiguration itself is
// instantaneous, so the context is only checked on entry.
func (s *Simulated) Apply(ctx context.Context, cfg config.Config) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cfg == nil {
		return errNilConfig
	}
	if err := s.space.Validate(cfg); err != nil {
		return err
	}
	params, err := webtier.ParamsFromConfig(s.space, cfg)
	if err != nil {
		return err
	}
	if err := s.model.Configure(params); err != nil {
		return err
	}
	s.cfg = cfg.Clone()
	return nil
}

// Measure settles the system briefly, then records one interval. Virtual
// time costs real CPU, so cancellation is checked between the settle and
// recorded phases as well as on entry.
func (s *Simulated) Measure(ctx context.Context) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	s.model.Warmup(s.settleSeconds)
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	st, err := s.model.Run(s.measureSeconds)
	if err != nil {
		return Metrics{}, fmt.Errorf("simulated measure: %w", err)
	}
	m := Metrics{
		MeanRT:          st.MeanRT,
		P95RT:           st.P95RT,
		P99RT:           st.P99RT,
		Throughput:      st.Throughput,
		Completed:       st.Completed,
		Rejected:        st.Rejected,
		Offered:         st.Arrivals,
		IntervalSeconds: st.Interval + s.settleSeconds,
		Level:           s.model.AppLevel().Name,
		CapacityUnits:   vmenv.Ordinal(s.model.AppLevel()),
	}
	if s.slo > 0 && st.Interval > 0 {
		m.Goodput = float64(st.GoodCompleted) / st.Interval
	}
	return m, nil
}

// SetWorkload changes the traffic (driver-side context change).
func (s *Simulated) SetWorkload(w tpcw.Workload) error { return s.model.SetWorkload(w) }

// SetAppLevel reallocates the app/db VM (driver-side context change).
func (s *Simulated) SetAppLevel(level vmenv.Level) error { return s.model.SetAppLevel(level) }

// Workload returns the current traffic.
func (s *Simulated) Workload() tpcw.Workload { return s.model.Workload() }

// AppLevel returns the current VM allocation.
func (s *Simulated) AppLevel() vmenv.Level { return s.model.AppLevel() }

// Model exposes the underlying webtier model for tests and diagnostics.
func (s *Simulated) Model() *webtier.Model { return s.model }
