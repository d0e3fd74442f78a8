package mdp

import (
	"errors"
	"fmt"

	"github.com/rac-project/rac/internal/sim"
)

// Params are the learning hyper-parameters of paper Algorithm 1.
type Params struct {
	// Alpha is the learning rate (paper: 0.1 both offline and online).
	Alpha float64
	// Gamma is the discount rate (paper: 0.9).
	Gamma float64
	// Epsilon is the ε-greedy exploration rate (paper: 0.1 offline batch
	// training, 0.05 online).
	Epsilon float64
}

// Validate checks the hyper-parameters are in range.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha > 1 {
		return fmt.Errorf("mdp: alpha %v outside (0,1]", p.Alpha)
	}
	if p.Gamma < 0 || p.Gamma >= 1 {
		return fmt.Errorf("mdp: gamma %v outside [0,1)", p.Gamma)
	}
	if p.Epsilon < 0 || p.Epsilon > 1 {
		return fmt.Errorf("mdp: epsilon %v outside [0,1]", p.Epsilon)
	}
	return nil
}

// DefaultOffline returns the paper's offline-training hyper-parameters
// (α=0.1, γ=0.9, ε=0.1).
func DefaultOffline() Params { return Params{Alpha: 0.1, Gamma: 0.9, Epsilon: 0.1} }

// DefaultOnline returns the paper's online hyper-parameters
// (α=0.1, γ=0.9, ε=0.05).
func DefaultOnline() Params { return Params{Alpha: 0.1, Gamma: 0.9, Epsilon: 0.05} }

// Learner is an ε-greedy action selector over a Q-table, drawing from an RNG
// stream, with the temporal-difference update of Algorithm 1
// (UpdateSARSA). Neither the agent nor offline policy training uses it: both
// run Solve, and the agent's choice makes SelectAction's draws over its own
// rows. It serves the benchmark ledger's update probe and the tests' oracles
// (the sampled SARSA sweep, the agent's choice).
type Learner struct {
	table  *QTable
	params Params
	rng    *sim.RNG
}

// NewLearner wraps table with the given hyper-parameters and RNG stream.
func NewLearner(table *QTable, params Params, rng *sim.RNG) (*Learner, error) {
	if table == nil {
		return nil, errors.New("mdp: nil table")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("mdp: nil rng")
	}
	return &Learner{table: table, params: params, rng: rng}, nil
}

// SelectAction picks an action for state with ε-greedy exploration over the
// allowed action indices. Allowed must be non-empty.
func (l *Learner) SelectAction(state string, allowed []int) int {
	if len(allowed) == 0 {
		panic("mdp: SelectAction with no allowed actions")
	}
	if l.rng.Float64() < l.params.Epsilon {
		return allowed[l.rng.Intn(len(allowed))]
	}
	row := l.table.ReadRow(state)
	best := allowed[0]
	bestV := row[best]
	for _, a := range allowed[1:] {
		if row[a] > bestV {
			best, bestV = a, row[a]
		}
	}
	return best
}

// UpdateSARSA applies the on-policy TD update of paper Algorithm 1:
//
//	Q(s,a) += α [ r + γ Q(s',a') − Q(s,a) ]
//
// and returns the absolute TD error.
func (l *Learner) UpdateSARSA(state string, action int, reward float64, next string, nextAction int) float64 {
	cur := l.table.Get(state, action)
	target := reward + l.params.Gamma*l.table.Get(next, nextAction)
	delta := target - cur
	l.table.Set(state, action, cur+l.params.Alpha*delta)
	if delta < 0 {
		return -delta
	}
	return delta
}
