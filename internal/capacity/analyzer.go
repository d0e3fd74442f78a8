// Package capacity adds elastic capacity control to the auto-configuration
// stack: the VM provisioning level becomes an actuator alongside the paper's
// software knobs. Three parts cooperate. The Analyzer performs deterministic
// saturation detection on the per-interval measurements the stack already
// emits — knee detection on the offered-vs-completed curve plus backlog
// trending, pure count/epoch-driven like internal/admission (no wall clock,
// no RNG), so runs stay byte-identical at any -procs. The System decorator
// wraps an Adjustable backend with a vmenv.Elastic scaler: deliberate
// CapacityLevel moves from the configuration lattice and analyzer verdicts
// between full Q-learning retrains both become scale requests, matured
// through the provisioning delay and priced into the reward via
// Metrics.CapacityUnits. The OnScale hook lets callers warm-start per-level
// policies from a registry (SQLR-style short-term policy memory), so a
// scale-back reuses what was learned at that level instead of re-exploring.
package capacity

import (
	"fmt"
)

// Config tunes the saturation analyzer. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Window is how many observations (measurement intervals) form one
	// verdict window. Verdicts are withheld until the window is full and the
	// window slides by one observation per Observe.
	Window int
	// SLASeconds is the latency reference: p99 (or mean, when p99 is
	// untracked) beyond it counts as a latency breach.
	SLASeconds float64
	// Cooldown suppresses further scale verdicts for this many observations
	// after one fires, giving the previous decision time to take effect.
	Cooldown int
}

// The analyzer's fixed thresholds. saturationRatio is the completed/offered
// knee: a window whose completion ratio falls below it — arrivals outpacing
// completions — is a saturation candidate. headroomRatio is the completion
// ratio at or above which the system is considered to be serving everything
// offered, and headroomRT the fraction of SLASeconds the latency must stay
// under for a headroom verdict: serving everything slowly is not headroom.
const (
	saturationRatio = 0.90
	headroomRatio   = 0.98
	headroomRT      = 0.5
)

// DefaultConfig returns the analyzer calibration used by the experiments: a
// three-interval window and a two-interval cooldown.
func DefaultConfig(slaSeconds float64) Config {
	return Config{Window: 3, SLASeconds: slaSeconds, Cooldown: 2}
}

// Validate checks the calibration.
func (c Config) Validate() error {
	if c.Window < 1 {
		return fmt.Errorf("capacity: window %d < 1", c.Window)
	}
	if c.SLASeconds <= 0 {
		return fmt.Errorf("capacity: non-positive SLA %v", c.SLASeconds)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("capacity: negative cooldown %d", c.Cooldown)
	}
	return nil
}

// Observation is one measurement interval's saturation-relevant counts —
// the projection of system.Metrics the analyzer consumes.
type Observation struct {
	// Offered is the interval's arrivals reaching the admission decision
	// (system.Metrics.Offered). Zero means the producer does not track
	// arrivals; the analyzer then falls back to latency-only detection.
	Offered int
	// Completed is requests finished in the interval.
	Completed int
	// Rejected is arrivals the admission gate fast-rejected. Rejections are
	// not errors, but for capacity purposes they are unmet demand: the gate
	// turns arrivals away precisely because the current level cannot serve
	// them.
	Rejected int
	// Shed is offered requests the load harness dropped before issuing;
	// they never reached the system and are excluded from its demand.
	Shed int
	// MeanRT and P99RT are the interval's latency statistics in seconds.
	MeanRT float64
	P99RT  float64
}

// demand is the interval's arrivals that actually reached the system.
func (o Observation) demand() int {
	d := o.Offered - o.Shed
	if d < 0 {
		d = 0
	}
	return d
}

// backlog is the interval's in-system growth: arrivals neither completed nor
// turned away. Negative values mean the system drained previously queued work.
func (o Observation) backlog() int {
	return o.demand() - o.Completed - o.Rejected
}

// latency is the interval's latency signal: p99 when tracked, mean otherwise.
func (o Observation) latency() float64 {
	if o.P99RT > 0 {
		return o.P99RT
	}
	return o.MeanRT
}

// Verdict is the analyzer's per-window stance.
type Verdict int

// The verdicts: Stable between the thresholds (or while warming up /
// cooling down), Saturated past the capacity knee (scale up), Headroom when
// the system serves everything comfortably (scale down).
const (
	VerdictStable Verdict = iota
	VerdictSaturated
	VerdictHeadroom
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictSaturated:
		return "saturated"
	case VerdictHeadroom:
		return "headroom"
	default:
		return "stable"
	}
}

// Decision is one Observe outcome.
type Decision struct {
	// Seq counts observations from 1.
	Seq int
	// Verdict is the window's stance.
	Verdict Verdict
	// CompletionRatio is the window's completed/demand (1 when demand is
	// untracked).
	CompletionRatio float64
	// BacklogTrend is the backlog change across the window (last − first).
	BacklogTrend int
	// Latency is the newest observation's latency signal in seconds.
	Latency float64
	// Reason says which rule produced the verdict, for traces.
	Reason string
}

// Analyzer is the pure saturation detector: a sliding window of
// observations, one Decision per Observe. It holds no clock and draws no
// random numbers — decisions are a function of the observation sequence
// alone, so replays are byte-identical at any -procs setting. Not safe for
// concurrent use; drive it from the measurement loop's goroutine.
type Analyzer struct {
	cfg      Config
	window   []Observation // sliding, oldest first
	seq      int
	cooldown int // observations left before scale verdicts may fire again
}

// NewAnalyzer builds an analyzer with the given calibration.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{cfg: cfg, window: make([]Observation, 0, cfg.Window)}, nil
}

// Observe folds one interval into the window and returns its decision. Until
// the window fills, and during a post-verdict cooldown, the verdict is
// Stable with the reason recording why.
func (a *Analyzer) Observe(o Observation) Decision {
	a.seq++
	if len(a.window) == cap(a.window) {
		copy(a.window, a.window[1:])
		a.window = a.window[:len(a.window)-1]
	}
	a.window = append(a.window, o)

	d := Decision{Seq: a.seq, Latency: o.latency(), CompletionRatio: 1}
	if len(a.window) < a.cfg.Window {
		d.Reason = "warming"
		return d
	}
	d.CompletionRatio, d.BacklogTrend = a.windowStats()
	if a.cooldown > 0 {
		a.cooldown--
		d.Reason = "cooldown"
		return d
	}
	d.Verdict, d.Reason = a.verdict(d)
	if d.Verdict != VerdictStable {
		a.cooldown = a.cfg.Cooldown
	}
	return d
}

// windowStats aggregates the window: the completion ratio over its total
// demand and the backlog trend across it.
func (a *Analyzer) windowStats() (ratio float64, trend int) {
	var demand, completed int
	for _, o := range a.window {
		demand += o.demand()
		completed += o.Completed
	}
	ratio = 1
	if demand > 0 {
		ratio = float64(completed) / float64(demand)
	}
	trend = a.window[len(a.window)-1].backlog() - a.window[0].backlog()
	return ratio, trend
}

// verdict applies the detection rules to the full window.
func (a *Analyzer) verdict(d Decision) (Verdict, string) {
	breach := d.Latency > a.cfg.SLASeconds
	var rejected, demand int
	for _, o := range a.window {
		rejected += o.Rejected
		demand += o.demand()
	}

	// Knee detection: arrivals outpacing completions — the offered-vs-
	// completed curve has bent — corroborated by at least one distress
	// signal (rejections, growing backlog, or a latency breach) so a
	// low-demand window with sparse counts cannot trip it.
	if d.CompletionRatio < saturationRatio && (rejected > 0 || d.BacklogTrend > 0 || breach) {
		return VerdictSaturated, fmt.Sprintf("completion ratio %.2f below knee %.2f",
			d.CompletionRatio, saturationRatio)
	}
	// Latency-only detection: the latency signal over the SLA with the
	// backlog not draining. When the producer tracks no arrivals (window-wide
	// demand zero) the backlog proxy is meaningless — it degenerates to the
	// negated completion trend — so a sustained breach alone is saturation.
	if breach && (demand == 0 || d.BacklogTrend >= 0) {
		return VerdictSaturated, fmt.Sprintf("latency %.2fs over SLA %.2fs",
			d.Latency, a.cfg.SLASeconds)
	}
	// Headroom: everything offered is served, nothing rejected, and latency
	// comfortably under the SLA across the whole window. The ratio alone
	// decides demand coverage — per-interval backlog fluctuates around zero
	// at steady state (in-flight requests straddle interval edges), so it is
	// deliberately not a headroom condition.
	if d.CompletionRatio >= headroomRatio && rejected == 0 {
		limit := headroomRT * a.cfg.SLASeconds
		calm := true
		for _, o := range a.window {
			if o.latency() > limit {
				calm = false
				break
			}
		}
		if calm {
			return VerdictHeadroom, fmt.Sprintf("completion ratio %.2f with latency under %.2fs",
				d.CompletionRatio, limit)
		}
	}
	return VerdictStable, "within thresholds"
}
