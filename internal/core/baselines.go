package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/system"
)

// StaticAgent is the paper's first baseline: it never reconfigures, holding
// the static default settings of Table 1 (or whatever the system started
// with).
type StaticAgent struct {
	sys       system.System
	opts      Options
	iteration int
}

var _ Tuner = (*StaticAgent)(nil)

// NewStaticAgent wraps a system without ever reconfiguring it.
func NewStaticAgent(sys system.System, opts Options) (*StaticAgent, error) {
	if sys == nil {
		return nil, errors.New("core: nil system")
	}
	if opts == (Options{}) {
		opts = DefaultOptions()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &StaticAgent{sys: sys, opts: opts}, nil
}

// Step measures one interval under the unchanged configuration.
func (s *StaticAgent) Step(ctx context.Context) (StepResult, error) {
	s.iteration++
	m, err := s.sys.Measure(ctx)
	if err != nil {
		return StepResult{}, err
	}
	return s.opts.measuredStep(s.iteration, config.Action{Dir: config.Keep}, s.sys.Config(), m), nil
}

// TrialAndErrorAgent is the paper's second baseline (§5.2): it mimics a
// human administrator tuning one parameter at a time. For each parameter in
// turn it tries every lattice value (one measurement interval each), fixes
// the best, and moves to the next parameter; after the last parameter it
// starts a new round. Because parameters are tuned independently it is prone
// to local optima (paper: ~30% worse stable states than RAC).
type TrialAndErrorAgent struct {
	sys   system.System
	space *config.Space
	opts  Options

	iteration int
	param     int // parameter currently being tuned
	level     int // next lattice level to try
	bestRT    float64
	bestValue int
	cur       config.Config
}

var _ Tuner = (*TrialAndErrorAgent)(nil)

// NewTrialAndErrorAgent builds the coordinate-descent baseline.
func NewTrialAndErrorAgent(sys system.System, opts Options) (*TrialAndErrorAgent, error) {
	if sys == nil {
		return nil, errors.New("core: nil system")
	}
	if opts == (Options{}) {
		opts = DefaultOptions()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &TrialAndErrorAgent{
		sys:   sys,
		space: sys.Space(),
		opts:  opts,
		cur:   sys.Config(),
	}, nil
}

// Step tries the next value of the parameter under tuning.
func (t *TrialAndErrorAgent) Step(ctx context.Context) (StepResult, error) {
	t.iteration++
	def := t.space.Def(t.param)

	// Set the parameter to the next candidate level.
	trial := t.cur.Clone()
	oldVal := trial[t.param]
	trial[t.param] = def.Value(t.level)
	if err := t.sys.Apply(ctx, trial); err != nil {
		return StepResult{}, fmt.Errorf("core: trial apply: %w", err)
	}
	m, err := t.sys.Measure(ctx)
	if err != nil {
		return StepResult{}, err
	}
	rt := m.MeanRT

	if t.level == 0 || rt < t.bestRT {
		t.bestRT = rt
		t.bestValue = trial[t.param]
	}

	dir := config.Keep
	switch {
	case trial[t.param] > oldVal:
		dir = config.Increase
	case trial[t.param] < oldVal:
		dir = config.Decrease
	}
	res := t.opts.measuredStep(t.iteration, config.Action{ParamIndex: t.param, Dir: dir}, trial.Clone(), m)

	// Advance the schedule: after the last level, fix the best value found
	// and move to the next parameter (wrapping into a new tuning round).
	t.level++
	if t.level >= def.Levels() {
		t.cur[t.param] = t.bestValue
		t.level = 0
		t.param = (t.param + 1) % t.space.Len()
	}
	return res, nil
}

// HillClimbAgent is an additional baseline beyond the paper's two: steepest
// descent over one-step lattice neighbours, restarting exploration when no
// neighbour improves. It probes one neighbour per iteration (a fair
// comparison: every agent gets one measurement per interval).
type HillClimbAgent struct {
	sys   system.System
	space *config.Space
	opts  Options

	iteration int
	actions   []config.Action
	next      int // next action to probe
	baseRT    float64
	baseSet   bool
	bestRT    float64
	bestCfg   config.Config
	cur       config.Config
}

var _ Tuner = (*HillClimbAgent)(nil)

// NewHillClimbAgent builds the hill-climbing baseline.
func NewHillClimbAgent(sys system.System, opts Options) (*HillClimbAgent, error) {
	if sys == nil {
		return nil, errors.New("core: nil system")
	}
	if opts == (Options{}) {
		opts = DefaultOptions()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &HillClimbAgent{
		sys:     sys,
		space:   sys.Space(),
		opts:    opts,
		actions: config.Actions(sys.Space()),
		cur:     sys.Config(),
	}, nil
}

// Step probes the next neighbour; when the probe cycle completes, it moves
// to the best neighbour if it improves on the current point.
func (h *HillClimbAgent) Step(ctx context.Context) (StepResult, error) {
	h.iteration++

	if !h.baseSet {
		// Measure the starting point first.
		m, err := h.measure(ctx, h.cur)
		if err != nil {
			return StepResult{}, err
		}
		h.baseRT = m.MeanRT
		h.baseSet = true
		h.bestRT = m.MeanRT
		h.bestCfg = h.cur.Clone()
		h.next = 1 // skip the global keep action
		return h.opts.measuredStep(h.iteration, config.Action{Dir: config.Keep}, h.cur.Clone(), m), nil
	}

	// Find the next feasible neighbour action.
	for h.next < len(h.actions) {
		if h.actions[h.next].Feasible(h.space, h.cur) {
			break
		}
		h.next++
	}
	if h.next >= len(h.actions) {
		// Probe cycle complete: move to the best neighbour (or stay), then
		// restart the cycle.
		improved := h.bestRT < h.baseRT
		if improved {
			h.cur = h.bestCfg.Clone()
			h.baseRT = h.bestRT
		}
		h.next = 1
		h.bestRT = h.baseRT
		h.bestCfg = h.cur.Clone()
		m, err := h.measure(ctx, h.cur)
		if err != nil {
			return StepResult{}, err
		}
		// Refresh the base measurement (the environment may have drifted).
		h.baseRT = m.MeanRT
		return h.opts.measuredStep(h.iteration, config.Action{Dir: config.Keep}, h.cur.Clone(), m), nil
	}

	action := h.actions[h.next]
	h.next++
	trial, _ := action.Apply(h.space, h.cur)
	m, err := h.measure(ctx, trial)
	if err != nil {
		return StepResult{}, err
	}
	if m.MeanRT < h.bestRT {
		h.bestRT = m.MeanRT
		h.bestCfg = trial.Clone()
	}
	return h.opts.measuredStep(h.iteration, action, trial, m), nil
}

func (h *HillClimbAgent) measure(ctx context.Context, cfg config.Config) (system.Metrics, error) {
	if err := h.sys.Apply(ctx, cfg); err != nil {
		return system.Metrics{}, fmt.Errorf("core: hillclimb apply: %w", err)
	}
	return h.sys.Measure(ctx)
}
