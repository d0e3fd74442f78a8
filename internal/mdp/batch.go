package mdp

import (
	"errors"
	"fmt"

	"github.com/rac-project/rac/internal/sim"
)

// Model describes a deterministic MDP over densely indexed states, as induced
// by a configuration lattice: taking an action in a state leads to exactly one
// next state, and the reward of a transition depends on the state it reaches.
// States are indexed 0..len(States())-1 in States() order; the keys are what
// the Q-table stores rows under.
//
// NextIndex must be closed over the index range: a returned index i must
// satisfy 0 <= i < len(States()), or be negative for an infeasible action.
type Model interface {
	// States enumerates every state key of the model.
	States() []string
	// Actions returns the total number of actions.
	Actions() int
	// NextIndex returns the index of the state reached by taking action in
	// state s, or a negative value when the action is infeasible there.
	// Infeasible actions are skipped by batch training and must not be
	// selected online.
	NextIndex(s, action int) int
	// RewardIndex returns the immediate reward received on entering state s.
	RewardIndex(s int) float64
}

// BatchConfig controls a batch training run (the offline RL process of paper
// Algorithm 1 and the per-interval retraining of Algorithm 3).
type BatchConfig struct {
	Params Params
	// StepsPerState is the inner trajectory length per sweep (Algorithm 1's
	// LIMIT).
	StepsPerState int
	// MaxSweeps bounds the number of full state sweeps.
	MaxSweeps int
	// Theta is the convergence threshold on the largest per-sweep TD error
	// (Algorithm 1's θ).
	Theta float64
}

// DefaultBatchConfig returns the training schedule used by the experiments:
// the paper's hyper-parameters, eight-step inner trajectories, and a 0.01
// convergence threshold. The sweep bound keeps offline training over the
// ~10⁴-state group lattice in the sub-second range; under ε-greedy
// exploration the TD error stays stochastic, so the bound — not θ — usually
// terminates training (see Algorithm 1).
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{
		Params:        DefaultOffline(),
		StepsPerState: 8,
		MaxSweeps:     60,
		Theta:         0.01,
	}
}

// BatchResult reports how a batch training run converged.
type BatchResult struct {
	Sweeps    int
	FinalErr  float64
	Converged bool
}

// Structure is the immutable skeleton of a Model: its state keys, transition
// table and flattened feasible-action lists in dense array form. Rewards are
// deliberately excluded — they change between training calls (measured
// samples refine them) while the lattice shape does not, so a Structure built
// once can back every retraining pass over the same region and be shared
// read-only across agents tuning the same context.
type Structure struct {
	states  []string
	actions int
	// trans[s*actions+a] is the index reached by taking a in s, or -1 when
	// infeasible. feas[off[s]:off[s+1]] lists s's feasible actions ascending.
	trans []int32
	off   []int32
	feas  []int32
}

// States returns the model's state keys in index order. The slice is shared;
// callers must not mutate it.
func (st *Structure) States() []string { return st.states }

// Actions returns the per-state action count.
func (st *Structure) Actions() int { return st.actions }

// Next returns the index reached by taking action in state s, or a negative
// value when the action is infeasible there.
func (st *Structure) Next(s, action int) int { return int(st.trans[s*st.actions+action]) }

// NewStructure materializes model's transitions and feasible-action lists
// into a Structure, validating the closure invariants training relies on:
// every transition stays inside the enumerated states and every state has at
// least one feasible action.
func NewStructure(model Model) (*Structure, error) {
	states := model.States()
	actions := model.Actions()
	trans := make([]int32, len(states)*actions)
	for s := range states {
		for a := 0; a < actions; a++ {
			next := model.NextIndex(s, a)
			if next >= len(states) {
				return nil, fmt.Errorf("mdp: state %q action %d leads to index %d outside the model's %d states",
					states[s], a, next, len(states))
			}
			if next < 0 {
				next = -1
			}
			trans[s*actions+a] = int32(next)
		}
	}
	return NewStructureFromTransitions(states, actions, trans)
}

// NewStructureFromTransitions is NewStructure for a caller that already holds
// the transition table: trans[s*actions+a] is the index reached by taking a
// in s, negative when infeasible. The structure takes ownership of states and
// trans; the same closure invariants are validated.
func NewStructureFromTransitions(states []string, actions int, trans []int32) (*Structure, error) {
	n := len(states)
	if n == 0 {
		return nil, errors.New("mdp: model has no states")
	}
	if len(trans) != n*actions {
		return nil, fmt.Errorf("mdp: transition table has %d entries, want %d states x %d actions",
			len(trans), n, actions)
	}
	feasible := 0
	for i, next := range trans {
		if int(next) >= n {
			return nil, fmt.Errorf("mdp: state %q action %d leads to index %d outside the model's %d states",
				states[i/actions], i%actions, next, n)
		}
		if next >= 0 {
			feasible++
		}
	}
	st := &Structure{
		states:  states,
		actions: actions,
		trans:   trans,
		off:     make([]int32, n+1),
		feas:    make([]int32, 0, feasible),
	}
	for s := 0; s < n; s++ {
		st.off[s] = int32(len(st.feas))
		for a, next := range trans[s*actions : (s+1)*actions] {
			if next >= 0 {
				st.feas = append(st.feas, int32(a))
			}
		}
		if int(st.off[s]) == len(st.feas) {
			return nil, fmt.Errorf("mdp: state %q has no feasible actions", states[s])
		}
	}
	st.off[n] = int32(len(st.feas))
	return st, nil
}

// BatchTrain is Train for an ad-hoc model: it materializes the model's
// Structure and rewards, then trains. Callers that retrain over one lattice
// repeatedly build the Structure once and call Train directly.
func BatchTrain(table *QTable, model Model, cfg BatchConfig, rng *sim.RNG) (BatchResult, error) {
	if model == nil {
		return BatchResult{}, errors.New("mdp: nil model")
	}
	st, err := NewStructure(model)
	if err != nil {
		return BatchResult{}, err
	}
	rewards := make([]float64, len(st.states))
	for s := range rewards {
		rewards[s] = model.RewardIndex(s)
	}
	return Train(table, st, rewards, cfg, rng)
}

// Train runs Algorithm 1 over the MDP (st, rewards): repeated sweeps over all
// states, each starting an ε-greedy trajectory of StepsPerState SARSA updates,
// until the largest TD error of a sweep drops below Theta or MaxSweeps is
// exhausted. rewards[s] is the immediate reward received on entering state s.
// The table is updated in place: every state's row is materialized.
//
// All training state is held in flat arrays: q is the Q-table in row-major
// (state, action) layout seeded exactly as lazy row materialization would seed
// it; feasible-action lists are flattened into one backing array addressed by
// per-state offsets, so the sweep loop performs no string hashing, no map
// lookups and no interface dispatch. Every random draw, comparison and
// floating-point update mirrors a Learner driven over the string-keyed table
// (SelectAction, UpdateSARSA) operation for operation — the reference loop in
// batch_test.go — which is what makes the result byte-identical to it;
// determinism tests across the repo pin that equivalence.
func Train(table *QTable, st *Structure, rewards []float64, cfg BatchConfig, rng *sim.RNG) (BatchResult, error) {
	switch {
	case table == nil:
		return BatchResult{}, errors.New("mdp: nil table")
	case st == nil:
		return BatchResult{}, errors.New("mdp: nil structure")
	case rng == nil:
		return BatchResult{}, errors.New("mdp: nil rng")
	case table.Actions() != st.actions:
		return BatchResult{}, fmt.Errorf("mdp: table has %d actions, model %d", table.Actions(), st.actions)
	case len(rewards) != len(st.states):
		return BatchResult{}, fmt.Errorf("mdp: %d rewards for %d states", len(rewards), len(st.states))
	}
	if err := cfg.Params.Validate(); err != nil {
		return BatchResult{}, err
	}
	if cfg.StepsPerState < 1 {
		cfg.StepsPerState = 1
	}
	if cfg.MaxSweeps < 1 {
		cfg.MaxSweeps = 1
	}
	states, actions, n := st.states, st.actions, len(st.states)
	trans, off, feas := st.trans, st.off, st.feas

	// Dense Q storage, seeded with the values lazy materialization would
	// produce: whatever row the table serves for each state.
	q := make([]float64, n*actions)
	for s, state := range states {
		table.snapshotRow(state, q[s*actions:(s+1)*actions])
	}

	var (
		alpha = cfg.Params.Alpha
		gamma = cfg.Params.Gamma
		eps   = cfg.Params.Epsilon
	)
	// Greedy-action cache: the argmax of each row with strict-greater ties
	// toward the lowest action index — exactly what Learner.SelectAction's
	// ascending scan produces. Each SARSA step changes one (state, action)
	// cell, so the cache is maintained in O(1) per update, with a full row
	// rescan only when the cached best entry itself decreases (a lower-index
	// action tied at the new value would then win the scan). This turns the
	// greedy select from an O(actions) scan into an array load.
	best := make([]int32, n)
	bestV := make([]float64, n)
	rescan := func(s int) {
		allowed := feas[off[s]:off[s+1]]
		row := q[s*actions : (s+1)*actions]
		b := allowed[0]
		bv := row[b]
		for _, a := range allowed[1:] {
			if row[a] > bv {
				b, bv = a, row[a]
			}
		}
		best[s], bestV[s] = b, bv
	}
	for s := 0; s < n; s++ {
		rescan(s)
	}
	// selectAction replicates Learner.SelectAction on the dense arrays: an
	// ε draw, then either a uniform feasible pick or the cached row argmax.
	selectAction := func(s int) int {
		if rng.Float64() < eps {
			allowed := feas[off[s]:off[s+1]]
			return int(allowed[rng.Intn(len(allowed))])
		}
		return int(best[s])
	}

	var res BatchResult
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		var maxErr float64
		for start := 0; start < n; start++ {
			state := start
			action := selectAction(state)
			for step := 0; step < cfg.StepsPerState; step++ {
				next := int(trans[state*actions+action])
				if next < 0 {
					// Defensive: selectAction only chooses feasible actions.
					break
				}
				reward := rewards[next]
				nextAction := selectAction(next)
				// SARSA update, in Learner.UpdateSARSA's operation order.
				cur := q[state*actions+action]
				target := reward + gamma*q[next*actions+nextAction]
				delta := target - cur
				newV := cur + alpha*delta
				q[state*actions+action] = newV
				// Maintain the greedy cache for the dirtied row.
				switch a32 := int32(action); {
				case a32 == best[state]:
					if newV >= bestV[state] {
						bestV[state] = newV
					} else {
						rescan(state)
					}
				case newV > bestV[state]:
					best[state], bestV[state] = a32, newV
				case newV == bestV[state] && a32 < best[state]:
					best[state] = a32
				}
				if delta < 0 {
					delta = -delta
				}
				if delta > maxErr {
					maxErr = delta
				}
				state, action = next, nextAction
			}
		}
		res.Sweeps = sweep + 1
		res.FinalErr = maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}

	// Scatter the trained rows back. The reference loop materializes every row
	// (each state starts a trajectory), so writing all rows matches it.
	for s, state := range states {
		table.setRow(state, q[s*actions:(s+1)*actions])
	}
	return res, nil
}
