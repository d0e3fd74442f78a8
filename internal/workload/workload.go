// Package workload poses time-varying traffic against every backend in the
// repository. A Scenario is an ordered list of phases — each with its own
// offered rate and/or browser population, traffic mix, and arrival process —
// shaped by composable modulation operators (periodic sinusoids, linear
// ramps, spike/flash-crowd windows) and an optional mix-drift schedule.
// Scenarios serialize to JSON so experiments ship them as files (see
// examples/scenarios/).
//
// Compile turns a Scenario into a Schedule: a piecewise-smooth offered-load
// surface with a precomputed cumulative-rate table, from which the open-loop
// engine draws its pre-built arrival schedule and the simulated/analytic
// backends take per-interval workloads. All randomness flows through one
// sequential sim.RNG stream, preserving the loadgen determinism contract:
// worker count and GOMAXPROCS decide only who executes an arrival, never
// what the arrivals are, so a replay is byte-identical at any parallelism.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/rac-project/rac/internal/tpcw"
)

// Op names a modulation operator.
type Op string

// The modulation operators. Factors multiply: a phase's offered load at
// phase-relative time t is its base rate (or population) times the product of
// every operator's factor at t.
const (
	// OpSinusoid is a periodic swing: factor 1 + Amplitude·sin(2π·(t/Period +
	// PhaseShift)). Stack two with different periods for multi-period cycles
	// (e.g. a diurnal wave with a weekly overlay).
	OpSinusoid Op = "sinusoid"
	// OpRamp scales linearly from From to To across the whole phase.
	OpRamp Op = "ramp"
	// OpSpike multiplies by Factor inside the window [AtSeconds,
	// AtSeconds+DurationSeconds) — a flash crowd — and is 1 outside it.
	OpSpike Op = "spike"
)

// Modulation is one operator application. Fields are a union over the
// operators; unused fields stay zero and are omitted from JSON.
type Modulation struct {
	// Op selects the operator.
	Op Op `json:"op"`

	// PeriodSeconds is the sinusoid period in scenario seconds.
	PeriodSeconds float64 `json:"periodSeconds,omitempty"`
	// Amplitude is the sinusoid swing, a fraction of the base load in (0, 1].
	Amplitude float64 `json:"amplitude,omitempty"`
	// PhaseShift offsets the sinusoid, in fractions of a period. 0.75 puts
	// the trough at phase start and the crest half a period in.
	PhaseShift float64 `json:"phaseShift,omitempty"`

	// From and To are the ramp's start and end factors (≥ 0, not both zero).
	From float64 `json:"from,omitempty"`
	To   float64 `json:"to,omitempty"`

	// AtSeconds is the spike start, relative to the phase.
	AtSeconds float64 `json:"atSeconds,omitempty"`
	// DurationSeconds is the spike width.
	DurationSeconds float64 `json:"durationSeconds,omitempty"`
	// Factor is the spike multiplier (> 0; flash crowds use > 1, brownouts
	// < 1).
	Factor float64 `json:"factor,omitempty"`
}

// validate checks the modulation.
func (m Modulation) validate() error {
	switch m.Op {
	case OpSinusoid:
		if m.PeriodSeconds <= 0 {
			return fmt.Errorf("workload: sinusoid needs periodSeconds > 0, got %g", m.PeriodSeconds)
		}
		if m.Amplitude <= 0 || m.Amplitude > 1 {
			return fmt.Errorf("workload: sinusoid amplitude %g outside (0, 1]", m.Amplitude)
		}
	case OpRamp:
		if m.From < 0 || m.To < 0 {
			return fmt.Errorf("workload: ramp factors must be ≥ 0, got from=%g to=%g", m.From, m.To)
		}
		if m.From == 0 && m.To == 0 {
			return fmt.Errorf("workload: ramp needs from or to set")
		}
	case OpSpike:
		if m.Factor <= 0 {
			return fmt.Errorf("workload: spike needs factor > 0, got %g", m.Factor)
		}
		if m.DurationSeconds <= 0 {
			return fmt.Errorf("workload: spike needs durationSeconds > 0, got %g", m.DurationSeconds)
		}
		if m.AtSeconds < 0 {
			return fmt.Errorf("workload: negative spike atSeconds %g", m.AtSeconds)
		}
	default:
		return fmt.Errorf("workload: unknown modulation op %q", m.Op)
	}
	return nil
}

// MixDrift blends a phase's traffic mix into another across a window — the
// browse-heavy morning turning into an order-heavy evening. Class
// probabilities interpolate linearly between the two mixes.
type MixDrift struct {
	// To names the target mix ("browsing", "shopping", "ordering").
	To string `json:"to"`
	// StartSeconds is when the drift begins, relative to the phase.
	StartSeconds float64 `json:"startSeconds,omitempty"`
	// EndSeconds is when the drift completes; 0 means the phase end.
	EndSeconds float64 `json:"endSeconds,omitempty"`
}

// Phase is one segment of a scenario: a base load level, a mix, and the
// operators shaping it over the phase's duration.
type Phase struct {
	// Name labels the phase in figures and telemetry; empty means "phase-N".
	Name string `json:"name,omitempty"`
	// DurationSeconds is the phase length in scenario (paper-scale) seconds.
	DurationSeconds float64 `json:"durationSeconds"`
	// Rate is the base open-loop offered load in requests per second. Zero
	// means the phase drives no open-loop arrivals (population-only).
	Rate float64 `json:"rate,omitempty"`
	// Clients is the base closed-loop/simulated browser population. Zero
	// derives a population from Rate via the TPC-W think time when a backend
	// needs one.
	Clients int `json:"clients,omitempty"`
	// Mix names the base traffic mix. Required.
	Mix string `json:"mix"`
	// Arrival is the open-loop arrival process for windows starting in this
	// phase: "poisson" (default) or "uniform".
	Arrival string `json:"arrival,omitempty"`
	// Modulate is the operator stack; factors multiply.
	Modulate []Modulation `json:"modulate,omitempty"`
	// MixDrift, when set, drifts the mix toward another across the phase.
	MixDrift *MixDrift `json:"mixDrift,omitempty"`
}

// validate checks the phase.
func (p Phase) validate() error {
	if p.DurationSeconds <= 0 {
		return fmt.Errorf("workload: phase needs durationSeconds > 0, got %g", p.DurationSeconds)
	}
	if p.Rate < 0 {
		return fmt.Errorf("workload: negative rate %g", p.Rate)
	}
	if p.Clients < 0 {
		return fmt.Errorf("workload: negative clients %d", p.Clients)
	}
	if p.Rate == 0 && p.Clients == 0 {
		return fmt.Errorf("workload: phase needs rate or clients")
	}
	if _, err := tpcw.ParseMix(p.Mix); err != nil {
		return err
	}
	switch p.Arrival {
	case "", "poisson", "uniform":
	default:
		return fmt.Errorf("workload: unknown arrival process %q (want poisson or uniform)", p.Arrival)
	}
	for i, m := range p.Modulate {
		if err := m.validate(); err != nil {
			return fmt.Errorf("modulation %d: %w", i, err)
		}
		if m.Op == OpSpike && m.AtSeconds >= p.DurationSeconds {
			return fmt.Errorf("modulation %d: spike at %gs starts after the %gs phase ends",
				i, m.AtSeconds, p.DurationSeconds)
		}
	}
	if d := p.MixDrift; d != nil {
		if _, err := tpcw.ParseMix(d.To); err != nil {
			return err
		}
		end := d.EndSeconds
		if end == 0 {
			end = p.DurationSeconds
		}
		if d.StartSeconds < 0 || end > p.DurationSeconds || d.StartSeconds >= end {
			return fmt.Errorf("workload: mix drift window [%g, %g) invalid for a %gs phase",
				d.StartSeconds, end, p.DurationSeconds)
		}
	}
	return nil
}

// Scenario is a declarative, replayable time-varying workload.
type Scenario struct {
	// Name labels the scenario in figures and logs.
	Name string `json:"name,omitempty"`
	// Seed salts the arrival RNG stream, so two scenarios with identical
	// phases still draw different arrivals.
	Seed uint64 `json:"seed,omitempty"`
	// IntervalSeconds is the scenario's natural measurement-interval length
	// in scenario seconds; 0 means DefaultIntervalSeconds (the paper's
	// 5-minute interval).
	IntervalSeconds float64 `json:"intervalSeconds,omitempty"`
	// Phases run in order; the scenario's duration is their sum.
	Phases []Phase `json:"phases"`
}

// DefaultIntervalSeconds is the paper's 5-minute measurement interval.
const DefaultIntervalSeconds = 300

// Validate checks every phase.
func (s Scenario) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: scenario needs at least one phase")
	}
	if s.IntervalSeconds < 0 {
		return fmt.Errorf("workload: negative intervalSeconds %g", s.IntervalSeconds)
	}
	for i, p := range s.Phases {
		if err := p.validate(); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	// Compile integrates the load on a grid of 512 to 65 536 cells across the
	// whole scenario, so the span must be finite and a cell wider than zero.
	if d := s.Duration(); math.IsInf(d, 0) || d/(1<<16) == 0 {
		return fmt.Errorf("workload: scenario duration %g s is too short or too long to compile", d)
	}
	return nil
}

// Duration returns the scenario length in scenario seconds.
func (s Scenario) Duration() float64 {
	var total float64
	for _, p := range s.Phases {
		total += p.DurationSeconds
	}
	return total
}

// Interval returns the scenario's measurement-interval length, resolving the
// default.
func (s Scenario) Interval() float64 {
	if s.IntervalSeconds > 0 {
		return s.IntervalSeconds
	}
	return DefaultIntervalSeconds
}

// Scale returns a copy with every duration — phase lengths, operator periods
// and windows, drift windows — multiplied by f. Rates, populations and the
// measurement interval are untouched, so the scenario keeps its shape but
// spans f× the intervals; quick-mode experiments compress with f < 1.
func (s Scenario) Scale(f float64) Scenario {
	out := s
	out.Phases = make([]Phase, len(s.Phases))
	for i, p := range s.Phases {
		p.DurationSeconds *= f
		if len(p.Modulate) > 0 {
			mods := make([]Modulation, len(p.Modulate))
			for j, m := range p.Modulate {
				m.PeriodSeconds *= f
				m.AtSeconds *= f
				m.DurationSeconds *= f
				mods[j] = m
			}
			p.Modulate = mods
		}
		if p.MixDrift != nil {
			d := *p.MixDrift
			d.StartSeconds *= f
			d.EndSeconds *= f
			p.MixDrift = &d
		}
		out.Phases[i] = p
	}
	return out
}

// Load reads and validates a JSON scenario: exactly one document, then EOF.
func Load(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("workload: decode scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("workload: decode scenario: data after the document")
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadFile reads and validates a JSON scenario from a file.
func LoadFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("workload: %s: %w", path, err)
	}
	return s, nil
}
