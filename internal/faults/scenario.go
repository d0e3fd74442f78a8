// Package faults is the repository's fault model: a deterministic,
// RNG-seeded fault-injection layer that wraps any system.System and subjects
// its consumers to the failures a live auto-configuration loop must survive —
// reconfigurations that error or silently do not take, lost or wedged
// measurement intervals, latency spikes, request-error bursts, transient
// capacity degradation, and noisy or outlier measurements.
//
// Faults are scheduled declaratively: a Scenario is a list of Rules, each
// naming a fault Kind, the measurement-interval window it is active in, an
// optional per-call probability (omitted = fires every time) and a
// kind-specific magnitude. Scenarios serialize to JSON so experiments ship
// them as files (see examples/faults_basic.json). All randomness flows
// through one sim.RNG stream derived from the scenario and wrapper seeds, so
// a replay is byte-identical for any GOMAXPROCS or worker-pool width — the
// same determinism contract as internal/parallel.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Kind names an injectable fault type.
type Kind string

// The fault taxonomy. Apply-side faults fire on System.Apply, measure-side
// faults on System.Measure.
const (
	// ApplyError makes Apply return a transient error (the reconfiguration
	// RPC failed and says so).
	ApplyError Kind = "apply-error"
	// ApplyIgnored makes Apply report success without reconfiguring — the
	// config silently did not take, the worst reconfiguration failure mode.
	ApplyIgnored Kind = "apply-ignored"
	// MeasureError makes Measure return a transient error (the interval's
	// data was lost).
	MeasureError Kind = "measure-error"
	// MeasureTimeout makes Measure return a transient deadline error (the
	// monitor wedged).
	MeasureTimeout Kind = "measure-timeout"
	// LatencySpike multiplies the measured MeanRT and P95RT by Magnitude
	// (default 4): a transient slowdown the system did not cause itself.
	LatencySpike Kind = "latency-spike"
	// ErrorBurst converts a Magnitude fraction (default 0.6) of the
	// interval's completions into errors, slashing throughput — the paper's
	// SLA-violating transient of Algorithm 3 pushed to the failure regime.
	ErrorBurst Kind = "error-burst"
	// CapacityDrop degrades the VM allocation by Magnitude levels (default
	// 1) while the rule is active and restores it after — a VM-level change
	// the driver did not announce. Requires the wrapped system to implement
	// system.Adjustable; otherwise the rule is skipped.
	CapacityDrop Kind = "capacity-drop"
	// MeasureNoise multiplies MeanRT and P95RT by a log-normal factor with
	// sigma Magnitude (default 0.2): measurement jitter.
	MeasureNoise Kind = "measure-noise"
	// MeasureOutlier multiplies MeanRT and P95RT by Magnitude (default 10):
	// a wild mismeasurement that should be rejected, not learned from.
	MeasureOutlier Kind = "measure-outlier"
)

// Kinds returns every fault kind, in taxonomy order.
func Kinds() []Kind {
	return []Kind{
		ApplyError, ApplyIgnored, MeasureError, MeasureTimeout,
		LatencySpike, ErrorBurst, CapacityDrop, MeasureNoise, MeasureOutlier,
	}
}

// valid reports whether k names a known fault kind.
func (k Kind) valid() bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// Rule schedules one fault kind over a window of measurement intervals.
type Rule struct {
	// Kind is the fault to inject.
	Kind Kind `json:"kind"`
	// From is the first measurement interval (1-based) the rule is active
	// in; 0 means 1.
	From int `json:"from,omitempty"`
	// To is the last active interval; 0 means open-ended.
	To int `json:"to,omitempty"`
	// Probability is the per-call chance the active rule fires; 0 means it
	// fires on every call while active (a scripted, non-stochastic fault).
	Probability float64 `json:"probability,omitempty"`
	// Magnitude is the kind-specific intensity; 0 uses the kind's default
	// (see the Kind constants).
	Magnitude float64 `json:"magnitude,omitempty"`
}

// activeAt reports whether the rule covers the given 1-based interval.
func (r Rule) activeAt(interval int) bool {
	from := r.From
	if from < 1 {
		from = 1
	}
	return interval >= from && (r.To == 0 || interval <= r.To)
}

// magnitude returns the rule's intensity, falling back to the kind default.
func (r Rule) magnitude() float64 {
	if r.Magnitude > 0 {
		return r.Magnitude
	}
	switch r.Kind {
	case LatencySpike:
		return 4
	case ErrorBurst:
		return 0.6
	case CapacityDrop:
		return 1
	case MeasureNoise:
		return 0.2
	case MeasureOutlier:
		return 10
	default:
		return 0
	}
}

// validate checks the rule.
func (r Rule) validate() error {
	if !r.Kind.valid() {
		return fmt.Errorf("faults: unknown kind %q", r.Kind)
	}
	if r.From < 0 || r.To < 0 {
		return fmt.Errorf("faults: %s: negative interval window [%d,%d]", r.Kind, r.From, r.To)
	}
	if r.To != 0 && r.To < r.From {
		return fmt.Errorf("faults: %s: window ends (%d) before it starts (%d)", r.Kind, r.To, r.From)
	}
	if r.Probability < 0 || r.Probability > 1 {
		return fmt.Errorf("faults: %s: probability %v outside [0,1]", r.Kind, r.Probability)
	}
	if r.Magnitude < 0 {
		return fmt.Errorf("faults: %s: negative magnitude %v", r.Kind, r.Magnitude)
	}
	if r.Kind == ErrorBurst && r.Magnitude > 1 {
		return fmt.Errorf("faults: error-burst magnitude %v is a fraction, must be ≤ 1", r.Magnitude)
	}
	return nil
}

// Scenario is a declarative, replayable fault schedule.
type Scenario struct {
	// Name labels the scenario in figures and logs.
	Name string `json:"name,omitempty"`
	// Seed salts the injection RNG stream, so two scenarios with identical
	// rules can still fire differently.
	Seed uint64 `json:"seed,omitempty"`
	// Rules are the scheduled faults; order is part of the contract (rules
	// draw from the RNG in order, so reordering changes the replay).
	Rules []Rule `json:"rules"`
}

// Validate checks every rule.
func (s Scenario) Validate() error {
	for i, r := range s.Rules {
		if err := r.validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// LastScheduled returns the largest bounded rule end, or 0 when every rule is
// open-ended (or there are none). Experiment drivers use it to size runs so
// recovery after the final fault window is observable.
func (s Scenario) LastScheduled() int {
	last := 0
	for _, r := range s.Rules {
		if r.To > last {
			last = r.To
		}
	}
	return last
}

// Load reads and validates a JSON scenario: exactly one document, then EOF.
func Load(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("faults: decode scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("faults: decode scenario: data after the document")
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
		return Scenario{}, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("faults: %s: %w", path, err)
	}
	return s, nil
}
