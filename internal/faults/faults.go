package faults

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// Injection records one fired fault for the replay log.
type Injection struct {
	// Interval is the 1-based measurement interval the fault hit (for apply
	// faults, the upcoming interval).
	Interval int `json:"interval"`
	// Kind is the fault that fired.
	Kind Kind `json:"kind"`
	// Detail is kind-specific context (magnitude, restored level, …).
	Detail string `json:"detail,omitempty"`
}

// Options configure a fault-injecting wrapper.
type Options struct {
	// Scenario is the fault schedule; an empty scenario injects nothing.
	Scenario Scenario
	// Seed is mixed with Scenario.Seed into the injection RNG stream.
	Seed uint64
	// Telemetry, when non-nil, receives a faults_injected_total counter per
	// fired kind.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives one "fault" event per injection, so
	// injected faults are visible in the same decision trace as the agent's
	// recovery actions.
	Trace *telemetry.Trace
}

// System wraps a system.System and injects the scenario's faults into Apply
// and Measure. It also implements system.Adjustable, forwarding to the inner
// system when it is adjustable (capacity-drop rules need that control
// surface).
//
// The wrapper is as deterministic as its inputs: every stochastic decision
// draws from one sim.RNG stream in rule order, so the injected sequence is a
// pure function of (scenario, seed, call sequence) — independent of
// GOMAXPROCS and of any worker pool the experiment fans out on.
//
// Like the systems it wraps, a System is driven from one goroutine at a time.
type System struct {
	inner system.System
	adj   system.Adjustable // nil when inner is not adjustable
	sc    Scenario
	rng   *sim.RNG

	intervals int           // measurement intervals elapsed (including lost ones)
	shadow    config.Config // config the caller believes applied after apply-ignored
	dropped   bool          // capacity currently degraded by a capacity-drop rule
	saved     vmenv.Level   // level to restore when the drop window ends

	log   []Injection
	reg   *telemetry.Registry
	trace *telemetry.Trace
}

var (
	_ system.System     = (*System)(nil)
	_ system.Adjustable = (*System)(nil)
)

// New wraps sys with the scenario in opts.
func New(sys system.System, opts Options) (*System, error) {
	if sys == nil {
		return nil, errors.New("faults: nil system")
	}
	if err := opts.Scenario.Validate(); err != nil {
		return nil, err
	}
	adj, _ := sys.(system.Adjustable)
	return &System{
		inner: sys,
		adj:   adj,
		sc:    opts.Scenario,
		rng:   sim.NewRNG(opts.Seed ^ opts.Scenario.Seed ^ 0xFA17),
		reg:   opts.Telemetry,
		trace: opts.Trace,
	}, nil
}

// Scenario returns the schedule the wrapper replays.
func (s *System) Scenario() Scenario { return s.sc }

// Inner returns the wrapped system. Restore paths use it to re-apply a
// checkpointed configuration without routing through the injection layer
// (which would consume scheduled faults and RNG draws that belong to the
// resumed run).
func (s *System) Inner() system.System { return s.inner }

// Injected returns a copy of the fired-fault log, in injection order.
func (s *System) Injected() []Injection {
	out := make([]Injection, len(s.log))
	copy(out, s.log)
	return out
}

// upcoming is the 1-based interval the next Measure call records.
func (s *System) upcoming() int { return s.intervals + 1 }

// fires decides whether an active rule fires on this call. Scripted rules
// (Probability 0) always fire; stochastic rules draw one uniform variate, so
// the RNG advances identically on fire and on miss.
func (s *System) fires(r Rule) bool {
	if !r.activeAt(s.upcoming()) {
		return false
	}
	if r.Probability == 0 {
		return true
	}
	return s.rng.Bool(r.Probability)
}

// inject records a fired fault in the log, telemetry and trace.
func (s *System) inject(k Kind, detail string) {
	s.log = append(s.log, Injection{Interval: s.upcoming(), Kind: k, Detail: detail})
	if s.reg != nil {
		s.reg.Counter("faults_injected_total",
			"Faults fired by the injection layer, by kind.",
			telemetry.Labels{"kind": string(k)}).Inc()
	}
	if s.trace != nil {
		s.trace.Add(telemetry.Event{
			Kind:      telemetry.KindFault,
			Iteration: s.upcoming(),
			Fault:     string(k),
			Detail:    detail,
		})
	}
}

// Space returns the inner configuration space.
func (s *System) Space() *config.Space { return s.inner.Space() }

// Config returns the configuration the caller believes is applied: after an
// apply-ignored fault it is the caller's requested config, not the inner
// system's actual one — that is the point of the fault.
func (s *System) Config() config.Config {
	if s.shadow != nil {
		return s.shadow.Clone()
	}
	return s.inner.Config()
}

// ActualConfig returns the configuration actually applied to the inner
// system, for tests and diagnostics (agents must not call it).
func (s *System) ActualConfig() config.Config { return s.inner.Config() }

// Apply forwards the reconfiguration, unless an apply-side rule fires first:
// apply-error returns a transient error, apply-ignored reports success while
// leaving the inner system unchanged.
func (s *System) Apply(ctx context.Context, cfg config.Config) error {
	for _, r := range s.sc.Rules {
		switch r.Kind {
		case ApplyError:
			if s.fires(r) {
				s.inject(ApplyError, "reconfiguration failed")
				return system.Transient(fmt.Errorf("faults: injected apply error at interval %d", s.upcoming()))
			}
		case ApplyIgnored:
			if s.fires(r) {
				s.inject(ApplyIgnored, "reconfiguration silently ignored")
				if err := s.inner.Space().Validate(cfg); err != nil {
					return err
				}
				s.shadow = cfg.Clone()
				return nil
			}
		}
	}
	if err := s.inner.Apply(ctx, cfg); err != nil {
		return err
	}
	s.shadow = nil
	return nil
}

// Measure applies capacity rules, then either loses the interval to a
// measure-side fault or measures the inner system and perturbs the result.
// The interval counter advances on every call — a lost interval still burns
// its measurement window, exactly like a wedged monitor on a live system.
func (s *System) Measure(ctx context.Context) (system.Metrics, error) {
	s.applyCapacityRules()
	defer func() { s.intervals++ }()

	for _, r := range s.sc.Rules {
		switch r.Kind {
		case MeasureError:
			if s.fires(r) {
				s.inject(MeasureError, "interval data lost")
				return system.Metrics{}, system.Transient(fmt.Errorf("faults: injected measure error at interval %d", s.upcoming()))
			}
		case MeasureTimeout:
			if s.fires(r) {
				s.inject(MeasureTimeout, "measurement deadline exceeded")
				return system.Metrics{}, system.Transient(fmt.Errorf("faults: injected measure timeout at interval %d", s.upcoming()))
			}
		}
	}

	m, err := s.inner.Measure(ctx)
	if err != nil {
		return m, err
	}
	for _, r := range s.sc.Rules {
		switch r.Kind {
		case LatencySpike:
			if s.fires(r) {
				mag := r.magnitude()
				m.MeanRT *= mag
				m.P95RT *= mag
				s.inject(LatencySpike, fmt.Sprintf("x%g", mag))
			}
		case ErrorBurst:
			if s.fires(r) {
				frac := r.magnitude()
				moved := int(frac * float64(m.Completed))
				m.Errors += moved
				m.Completed -= moved
				m.Throughput *= 1 - frac
				s.inject(ErrorBurst, fmt.Sprintf("%d requests errored", moved))
			}
		case MeasureNoise:
			if s.fires(r) {
				factor := s.rng.LogNormFloat64(0, r.magnitude())
				m.MeanRT *= factor
				m.P95RT *= factor
				s.inject(MeasureNoise, fmt.Sprintf("x%.3f", factor))
			}
		case MeasureOutlier:
			if s.fires(r) {
				mag := r.magnitude()
				m.MeanRT *= mag
				m.P95RT *= mag
				s.inject(MeasureOutlier, fmt.Sprintf("x%g", mag))
			}
		}
	}
	return m, nil
}

// applyCapacityRules enters or leaves the degraded VM level according to the
// capacity-drop rules covering the upcoming interval. Capacity drops are
// scripted by window — Probability is ignored — because flapping capacity per
// call would model a different (and less reproducible) failure than the
// paper's VM-level change.
func (s *System) applyCapacityRules() {
	if s.adj == nil {
		return
	}
	active := false
	levels := 0
	for _, r := range s.sc.Rules {
		if r.Kind == CapacityDrop && r.activeAt(s.upcoming()) {
			active = true
			levels = int(r.magnitude())
		}
	}
	switch {
	case active && !s.dropped:
		s.saved = s.adj.AppLevel()
		degraded := dropLevels(s.saved, levels)
		if degraded == s.saved {
			return // already at the weakest level: nothing to take away
		}
		if err := s.adj.SetAppLevel(degraded); err != nil {
			return
		}
		s.dropped = true
		s.inject(CapacityDrop, fmt.Sprintf("%s -> %s", s.saved.Name, degraded.Name))
	case !active && s.dropped:
		if err := s.adj.SetAppLevel(s.saved); err != nil {
			return
		}
		s.dropped = false
		s.inject(CapacityDrop, fmt.Sprintf("restored %s", s.saved.Name))
	}
}

// dropLevels returns the level n steps weaker than l (clamped to the weakest
// paper level).
func dropLevels(l vmenv.Level, n int) vmenv.Level {
	levels := vmenv.Levels() // decreasing capacity order
	idx := 0
	for i, known := range levels {
		if known == l {
			idx = i
			break
		}
	}
	idx += n
	if idx > len(levels)-1 {
		idx = len(levels) - 1
	}
	return levels[idx]
}

// SetWorkload forwards the driver-side context change to the inner system.
func (s *System) SetWorkload(w tpcw.Workload) error {
	if s.adj == nil {
		return errors.New("faults: wrapped system is not adjustable")
	}
	return s.adj.SetWorkload(w)
}

// SetAppLevel forwards a driver-side reallocation. While a capacity-drop rule
// holds the system degraded, the new level is recorded as the restore target
// instead of applied — the fault keeps squatting on the VM until its window
// ends.
func (s *System) SetAppLevel(level vmenv.Level) error {
	if s.adj == nil {
		return errors.New("faults: wrapped system is not adjustable")
	}
	if s.dropped {
		s.saved = level
		return nil
	}
	return s.adj.SetAppLevel(level)
}

// Workload returns the inner system's workload.
func (s *System) Workload() tpcw.Workload {
	if s.adj == nil {
		return tpcw.Workload{}
	}
	return s.adj.Workload()
}

// AppLevel returns the inner system's current (possibly degraded) level.
func (s *System) AppLevel() vmenv.Level {
	if s.adj == nil {
		return vmenv.Level{}
	}
	return s.adj.AppLevel()
}

var _ system.Snapshottable = (*System)(nil)

// faultsState is the serialized runtime state of the wrapper: the schedule
// position, the injection RNG mid-stream, the capacity-drop status and the
// fired-fault log, plus the inner system's blob when it is snapshottable.
type faultsState struct {
	Intervals int         `json:"intervals"`
	RNG       uint64      `json:"rng"`
	Shadow    []int       `json:"shadow,omitempty"`
	Dropped   bool        `json:"dropped,omitempty"`
	Saved     string      `json:"saved,omitempty"`
	Log       []Injection `json:"log,omitempty"`
	Inner     []byte      `json:"inner,omitempty"`
}

// ExportState captures the wrapper's runtime state so a restored tenant sees
// the same remaining fault schedule an uninterrupted run would. The inner
// system's state is embedded when it implements system.Snapshottable;
// otherwise only the wrapper state travels and the inner system restarts
// fresh.
func (s *System) ExportState() ([]byte, error) {
	st := faultsState{
		Intervals: s.intervals,
		RNG:       s.rng.State(),
		Dropped:   s.dropped,
		Log:       s.Injected(),
	}
	if s.shadow != nil {
		st.Shadow = s.shadow.Clone()
	}
	if s.dropped {
		st.Saved = s.saved.Name
	}
	if snap, ok := s.inner.(system.Snapshottable); ok {
		blob, err := snap.ExportState()
		if err != nil {
			return nil, fmt.Errorf("faults: inner state: %w", err)
		}
		st.Inner = blob
	}
	return json.Marshal(st)
}

// ImportState restores state captured by ExportState.
func (s *System) ImportState(blob []byte) error {
	var st faultsState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("faults: state: %w", err)
	}
	if st.Inner != nil {
		snap, ok := s.inner.(system.Snapshottable)
		if !ok {
			return errors.New("faults: state embeds inner system state but the wrapped system is not snapshottable")
		}
		if err := snap.ImportState(st.Inner); err != nil {
			return err
		}
	}
	if st.Dropped {
		saved, err := vmenv.ByName(st.Saved)
		if err != nil {
			return fmt.Errorf("faults: state: %w", err)
		}
		s.saved = saved
	} else {
		s.saved = vmenv.Level{}
	}
	s.intervals = st.Intervals
	s.rng = sim.RestoreRNG(st.RNG)
	s.dropped = st.Dropped
	s.shadow = nil
	if st.Shadow != nil {
		s.shadow = config.Config(st.Shadow).Clone()
	}
	s.log = append([]Injection(nil), st.Log...)
	return nil
}
