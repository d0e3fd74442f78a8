package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/system"
)

// ApproxAgent is the function-approximation variant of the RAC agent — the
// paper's §7 future-work direction. Instead of a tabular Q-table seeded by
// an offline policy, it learns per-action linear models over a quadratic
// feature basis of the configuration, so every measurement generalizes
// across the whole lattice immediately and memory stays constant in the
// number of visited states.
//
// It runs proper online SARSA: the action evaluated at each step was chosen
// at the end of the previous step, keeping the update strictly on-policy.
type ApproxAgent struct {
	sys     system.System
	space   *config.Space
	opts    Options
	actions []config.Action
	learner *mdp.ApproxLearner

	cur       config.Config
	pending   int // action chosen for cur, applied on the next Step
	hasPend   bool
	iteration int
}

var _ Tuner = (*ApproxAgent)(nil)

// NewApproxAgent builds a function-approximation agent over the system's
// configuration space.
func NewApproxAgent(sys system.System, opts Options, seed uint64) (*ApproxAgent, error) {
	if sys == nil {
		return nil, errors.New("core: nil system")
	}
	if opts == (Options{}) {
		opts = DefaultOptions()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	space := sys.Space()
	feats, dim := config.Features(space)
	actions := config.Actions(space)
	q, err := mdp.NewLinearQ(feats, dim, len(actions))
	if err != nil {
		return nil, err
	}
	learner, err := mdp.NewApproxLearner(q, opts.Online, sim.NewRNG(seed|1))
	if err != nil {
		return nil, err
	}
	return &ApproxAgent{
		sys:     sys,
		space:   space,
		opts:    opts,
		actions: actions,
		learner: learner,
		cur:     sys.Config(),
	}, nil
}

// Q exposes the underlying approximator for diagnostics.
func (a *ApproxAgent) Q() *mdp.LinearQ { return a.learner.Q() }

// Config returns the agent's current configuration.
func (a *ApproxAgent) Config() config.Config { return a.cur.Clone() }

// Step performs one online SARSA iteration: apply the pending action,
// measure, choose the next action, and update the weights.
func (a *ApproxAgent) Step(ctx context.Context) (StepResult, error) {
	a.iteration++

	if !a.hasPend {
		choice, err := a.learner.SelectAction(a.cur.Key(), feasibleActions(a.space, a.actions, a.cur))
		if err != nil {
			return StepResult{}, fmt.Errorf("core: approx select: %w", err)
		}
		a.pending = choice
		a.hasPend = true
	}
	action := a.actions[a.pending]
	next, _ := action.Apply(a.space, a.cur)
	if err := a.sys.Apply(ctx, next); err != nil {
		return StepResult{}, fmt.Errorf("core: approx apply %s: %w", next.Key(), err)
	}
	m, err := a.sys.Measure(ctx)
	if err != nil {
		return StepResult{}, fmt.Errorf("core: approx measure: %w", err)
	}
	res := a.opts.measuredStep(a.iteration, action, next.Clone(), m)

	nextChoice, err := a.learner.SelectAction(next.Key(), feasibleActions(a.space, a.actions, next))
	if err != nil {
		return StepResult{}, fmt.Errorf("core: approx select next: %w", err)
	}
	if _, err := a.learner.UpdateSARSA(a.cur.Key(), a.pending, res.Reward, next.Key(), nextChoice); err != nil {
		return StepResult{}, fmt.Errorf("core: approx update: %w", err)
	}

	a.cur = next
	a.pending = nextChoice
	return res, nil
}
