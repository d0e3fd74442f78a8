// Package admission implements the SLO gate in front of the web tier: a
// concurrency cap plus a bounded wait queue with a fast-reject path, and an
// epoch-adaptive loop that judges each epoch by the latency of the work the
// gate admitted, against the paper's 2 s SLA, and by the gate's own
// rejection rate, to steer between an exploit regime (headroom: open the gate
// back up) and a spread regime (overload: tighten it to protect latency)
// *between* the agent's full retrain intervals.
//
// The package splits along the repository's two data planes. Controller is
// the pure, single-goroutine decision logic: every admit/reject outcome ticks
// an epoch counter, every admitted request's end is counted with its latency,
// and at each epoch boundary (a fixed request count, never wall clock) the
// controller rescales the effective caps. Driving decisions off request
// counts keeps the simulated system byte-identical at any -procs. Gate wraps
// a Controller with a mutex and an occupancy count for the live concurrent
// HTTP server, where many goroutines race through Enter/Complete/release.
package admission

import (
	"fmt"
	"math"
)

// Params are the gate's configured caps. Both zero disables the gate
// entirely: every request is admitted and nothing is counted.
type Params struct {
	// MaxConcurrent caps requests concurrently past the gate and in service.
	MaxConcurrent int
	// MaxQueue caps requests past the gate but still waiting for service
	// (the web tier's admission queue). A request arriving with the queue
	// full is fast-rejected with 503 before touching the web tier.
	MaxQueue int
}

// Enabled reports whether the gate does anything at all.
func (p Params) Enabled() bool { return p.MaxConcurrent > 0 || p.MaxQueue > 0 }

// Capacity returns the total gate occupancy bound: concurrency plus queue.
func (p Params) Capacity() int { return p.MaxConcurrent + p.MaxQueue }

// Validate checks the caps.
func (p Params) Validate() error {
	if p.MaxConcurrent < 0 {
		return fmt.Errorf("admission: negative concurrency cap %d", p.MaxConcurrent)
	}
	if p.MaxQueue < 0 {
		return fmt.Errorf("admission: negative queue cap %d", p.MaxQueue)
	}
	return nil
}

// The epoch loop's calibration. An epoch spreads (the cap scale drops one
// scaleStep toward minScale) when more than highThreshold of its completions
// are late, or when its rejection rate exceeds highThreshold while the
// admitted work lacks headroom: at least lowThreshold of its completions
// slower than headroomSeconds. It exploits (the scale rises one scaleStep
// toward maxScale) when its rejection rate is below lowThreshold or the
// admitted work has that headroom, and holds otherwise. An epoch that saw no
// completion is judged on its rejection rate alone.
const (
	lowThreshold  = 0.02
	highThreshold = 0.10
	scaleStep     = 0.1
	minScale      = 0.5
	maxScale      = 1.5

	// slaSeconds is the paper's response-time SLA: a completion slower than
	// this is late.
	slaSeconds = 2.0
	// headroomSeconds is the headroom cut-off. Refusals alone say nothing
	// about the server, since the gate causes them; admitted work that stays
	// well inside the SLA says the server can take more.
	headroomSeconds = slaSeconds / 4
)

// EpochConfig tunes the epoch-adaptive loop. The zero value disables it: the
// configured caps apply unscaled forever.
type EpochConfig struct {
	// Size is the epoch length in gate outcomes (admits + rejects). Every
	// Size outcomes the controller judges the epoch and moves the cap scale
	// one step. Counts, not wall clock, so replays are exact.
	Size int
}

// DefaultEpoch returns the epoch loop used by the experiments: ~1000-request
// epochs.
func DefaultEpoch() EpochConfig { return EpochConfig{Size: 1000} }

// EpochWith returns DefaultEpoch with the given epoch size (0 keeps 1000).
func EpochWith(size int) EpochConfig {
	e := DefaultEpoch()
	if size > 0 {
		e.Size = size
	}
	return e
}

// Enabled reports whether the epoch loop adapts at all.
func (e EpochConfig) Enabled() bool { return e.Size > 0 }

// Validate checks the epoch configuration.
func (e EpochConfig) Validate() error {
	if e.Size < 0 {
		return fmt.Errorf("admission: negative epoch size %d", e.Size)
	}
	return nil
}

// Regime is the epoch loop's current stance.
type Regime int

// The regimes: Exploit opens the gate (rejections are wasted capacity while
// the admitted work has headroom), Spread tightens it (protect the latency of
// admitted work), Hold keeps the scale.
const (
	RegimeHold Regime = iota
	RegimeExploit
	RegimeSpread
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case RegimeExploit:
		return "exploit"
	case RegimeSpread:
		return "spread"
	default:
		return "hold"
	}
}

// Decision is one epoch boundary's outcome.
type Decision struct {
	// Epoch counts decisions from 1.
	Epoch int
	// RejectRate is the closed epoch's rejections / outcomes.
	RejectRate float64
	// LateShare is the share of the epoch's completions over the SLA, and
	// SlowShare the share over the headroom cut-off (both 0 when the epoch
	// saw no completion).
	LateShare, SlowShare float64
	// Regime is the stance the epoch selected.
	Regime Regime
	// Scale is the cap scale in force after the decision.
	Scale float64
}

// Controller is the pure admission logic: configured caps, the epoch loop's
// scale, and the running epoch counters. It is not safe for concurrent use —
// the simulator drives it from its single goroutine; the live server wraps it
// in a Gate.
type Controller struct {
	params Params
	epoch  EpochConfig

	scale    float64
	count    int // outcomes in the running epoch
	rejected int // rejections in the running epoch
	// Completions in the running epoch: all, over headroomSeconds, and over
	// slaSeconds.
	completed, slow, late int
	epochs                int // closed epochs
	regime                Regime
}

// NewController builds a controller. A nil-equivalent Params disables gating;
// a zero EpochConfig disables adaptation.
func NewController(params Params, epoch EpochConfig) (*Controller, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := epoch.Validate(); err != nil {
		return nil, err
	}
	return &Controller{params: params, epoch: epoch, scale: 1}, nil
}

// Params returns the configured (unscaled) caps.
func (c *Controller) Params() Params { return c.params }

// Scale returns the epoch loop's current cap scale.
func (c *Controller) Scale() float64 { return c.scale }

// Regime returns the stance of the most recent epoch decision.
func (c *Controller) Regime() Regime { return c.regime }

// Epochs returns how many epoch decisions have been made.
func (c *Controller) Epochs() int { return c.epochs }

// SetParams swaps the configured caps (a reconfiguration from the learning
// agent), preserving the epoch loop's scale and counters: the adaptation
// rides on top of whatever caps the lattice currently prescribes.
func (c *Controller) SetParams(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	c.params = params
	return nil
}

// Limits returns the effective caps with the epoch scale applied. A scaled
// cap never drops below 1 — the gate throttles, it does not black-hole.
func (c *Controller) Limits() (concurrent, queue int) {
	if !c.params.Enabled() {
		return 0, 0
	}
	return scaled(c.params.MaxConcurrent, c.scale), scaled(c.params.MaxQueue, c.scale)
}

// Capacity returns the effective total occupancy bound (0 when disabled).
func (c *Controller) Capacity() int {
	conc, queue := c.Limits()
	return conc + queue
}

// Admit decides one arrival given the caller's current gate occupancy. It
// does not count the outcome — callers report it through Observe so shed or
// abandoned arrivals can be excluded.
func (c *Controller) Admit(occupancy int) bool {
	return !c.params.Enabled() || occupancy < c.Capacity()
}

// Complete counts the end of one admitted request, with its latency in
// paper seconds, toward the running epoch's verdict. A request that failed
// after admission counts as late: pass +Inf.
func (c *Controller) Complete(rt float64) {
	if !c.params.Enabled() || !c.epoch.Enabled() {
		return
	}
	c.completed++
	if rt > headroomSeconds {
		c.slow++
		if rt > slaSeconds {
			c.late++
		}
	}
}

// Observe counts one gate outcome and, at an epoch boundary, applies the
// epoch decision to the cap scale. The boolean reports whether a decision
// was made this call.
func (c *Controller) Observe(rejected bool) (Decision, bool) {
	if !c.params.Enabled() || !c.epoch.Enabled() {
		return Decision{}, false
	}
	c.count++
	if rejected {
		c.rejected++
	}
	if c.count < c.epoch.Size {
		return Decision{}, false
	}
	d := Decision{RejectRate: float64(c.rejected) / float64(c.count)}
	// Without completions the epoch has no latency to go on: the admitted
	// work counts as lacking headroom, and the rejection rate decides.
	headroom := false
	if c.completed > 0 {
		d.LateShare = float64(c.late) / float64(c.completed)
		d.SlowShare = float64(c.slow) / float64(c.completed)
		headroom = d.SlowShare < lowThreshold
	}
	c.count, c.rejected = 0, 0
	c.completed, c.slow, c.late = 0, 0, 0
	c.epochs++
	switch {
	case d.LateShare > highThreshold, d.RejectRate > highThreshold && !headroom:
		c.regime = RegimeSpread
		c.scale = math.Max(minScale, c.scale-scaleStep)
	case d.RejectRate < lowThreshold, headroom:
		c.regime = RegimeExploit
		c.scale = math.Min(maxScale, c.scale+scaleStep)
	default:
		c.regime = RegimeHold
	}
	d.Epoch, d.Regime, d.Scale = c.epochs, c.regime, c.scale
	return d, true
}

// scaled applies the epoch scale to a cap, flooring at 1.
func scaled(cap int, scale float64) int {
	if cap <= 0 {
		return 0
	}
	v := int(math.Round(float64(cap) * scale))
	if v < 1 {
		v = 1
	}
	return v
}
