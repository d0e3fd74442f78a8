package mdp

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// Algorithm 1 and the per-interval retraining of Algorithm 3), which Solve
// computes rather than samples.
type BatchConfig struct {
	// Params supplies γ and ε of the solved equation; α is validated but
	// unused, since nothing is sampled.
	Params Params
	// StepsPerState is the sampled sweep's trajectory length (Algorithm 1's
	// LIMIT), read only by the SARSA reference loop the tests hold Solve to.
	// Solve does not use it; it stays in the config because the benchmark
	// ledger under benchmark/ still sets it.
	StepsPerState int
	// MaxSweeps bounds the number of full state sweeps.
	MaxSweeps int
	// Theta is the convergence threshold on the largest change a sweep makes
	// to any entry (Algorithm 1's θ).
	Theta float64
}

// DefaultBatchConfig returns the training schedule used by the experiments:
// the paper's hyper-parameters, a 60-sweep bound and a 0.01 convergence
// threshold.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{
		Params:        DefaultOffline(),
		StepsPerState: 8,
		MaxSweeps:     60,
		Theta:         0.01,
	}
}

// BatchResult reports how a batch training run converged: sweeps run, the
// largest change the last sweep made, and whether that fell below Theta
// before the sweep bound.
type BatchResult struct {
	Sweeps    int
	FinalErr  float64
	Converged bool
}

// Structure is the skeleton of a Model: its state keys, transition table and
// flattened feasible-action lists in dense array form. Rewards are
// deliberately excluded — they change between training calls (measured
// samples refine them) while the lattice shape does not, so one Structure can
// back every retraining pass over the same region. A Structure built whole
// (NewStructure, NewStructureFromTransitions) is immutable and may be shared
// read-only across agents tuning the same context; only a GrowingStructure
// changes, and only it has a sweep order.
type Structure struct {
	states  []string
	actions int
	// trans[s*actions+a] is the index reached by taking a in s, or -1 when
	// infeasible. feas[off[s]:off[s+1]] lists s's feasible actions ascending
	// and succ[off[s]:off[s+1]] the states they reach, entry for entry.
	trans []int32
	off   []int32
	feas  []int32
	succ  []int32
	// order is a growing structure's sweep order, every index once; nil
	// sweeps in index order.
	order []int32
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
// trans; the same closure invariants are validated, and the state keys must be
// distinct — Solve works on the table's own rows by index, so two indices with
// one key would alias one row.
func NewStructureFromTransitions(states []string, actions int, trans []int32) (*Structure, error) {
	if len(trans) != len(states)*actions {
		return nil, fmt.Errorf("mdp: transition table has %d entries, want %d states x %d actions",
			len(trans), len(states), actions)
	}
	seen := make(map[string]struct{}, len(states))
	for _, state := range states {
		if _, dup := seen[state]; dup {
			return nil, fmt.Errorf("mdp: state %q is listed twice", state)
		}
		seen[state] = struct{}{}
	}
	feasible := 0
	for _, next := range trans {
		if next >= 0 {
			feasible++
		}
	}
	st := &Structure{states: states, actions: actions, trans: trans,
		off: make([]int32, 0, len(states)+1), feas: make([]int32, 0, feasible), succ: make([]int32, 0, feasible)}
	if err := st.compile(); err != nil {
		return nil, err
	}
	return st, nil
}

// GrowingStructure is a Structure one owner grows in place — Append, Link,
// then Compile before Solve takes &g.Structure. It takes the keys'
// distinctness on trust: the owner identifies states more cheaply.
type GrowingStructure struct{ Structure }

// NewGrowingStructure returns an empty structure of the given action count.
func NewGrowingStructure(actions int) *GrowingStructure {
	return &GrowingStructure{Structure{actions: actions}}
}

// Append adds state with transitions next, one per action, and returns its
// index. next is copied; an entry may name the state being appended. The
// feasible-action lists and the sweep order are stale until Compile.
func (g *GrowingStructure) Append(state string, next []int32) int32 {
	if len(next) != g.actions {
		panic("mdp: Append with a row of the wrong width")
	}
	g.states = append(g.states, state)
	g.trans = append(g.trans, next...)
	return int32(len(g.states) - 1)
}

// Link sets the transition of action a in state s to index to (negative:
// infeasible). The feasible-action lists are stale until Compile.
func (g *GrowingStructure) Link(s, a int, to int32) { g.trans[s*g.actions+a] = to }

// Compile recompiles the feasible-action lists in place, validating what
// NewStructure does, and installs order — every index once, kept rather than
// copied — as the sweep order. After an error only a successful Compile makes
// the structure solvable again.
func (g *GrowingStructure) Compile(order []int32) error {
	n := len(g.states)
	if len(order) != n {
		return fmt.Errorf("mdp: sweep order lists %d states, want %d", len(order), n)
	}
	// off is rebuilt by compile, so it serves as the seen-marks first.
	g.off = slices.Grow(g.off[:0], n+1)[:n+1]
	clear(g.off)
	for _, s := range order {
		if s < 0 || int(s) >= n || g.off[s] != 0 {
			return fmt.Errorf("mdp: sweep order lists state %d out of range or twice", s)
		}
		g.off[s] = 1
	}
	g.order = order
	return g.compile()
}

// compile rebuilds the feasible-action lists from the transition table, in
// place, and validates the closure invariants: every transition stays inside
// the states and every state has a feasible action.
func (st *Structure) compile() error {
	n, actions := len(st.states), st.actions
	if n == 0 {
		return errors.New("mdp: model has no states")
	}
	st.off, st.feas, st.succ = st.off[:0], st.feas[:0], st.succ[:0]
	for s := 0; s < n; s++ {
		st.off = append(st.off, int32(len(st.feas)))
		for a, next := range st.trans[s*actions : (s+1)*actions] {
			if int(next) >= n {
				return fmt.Errorf("mdp: state %q action %d leads to index %d outside the model's %d states",
					st.states[s], a, next, n)
			}
			if next >= 0 {
				st.feas = append(st.feas, int32(a))
				st.succ = append(st.succ, next)
			}
		}
		if int(st.off[s]) == len(st.feas) {
			return fmt.Errorf("mdp: state %q has no feasible actions", st.states[s])
		}
	}
	st.off = append(st.off, int32(len(st.feas)))
	return nil
}

// BatchTrain is Solve for an ad-hoc model: it materializes the model's
// Structure and rewards, then solves. Callers that retrain over one lattice
// repeatedly build the Structure once and call Solve directly. The solver
// draws no random numbers; the rng parameter is ignored and stays only because
// the benchmark ledger under benchmark/ still passes one.
func BatchTrain(table *QTable, model Model, cfg BatchConfig, _ *sim.RNG) (BatchResult, error) {
	switch {
	case table == nil:
		return BatchResult{}, errors.New("mdp: nil table")
	case model == nil:
		return BatchResult{}, errors.New("mdp: nil model")
	}
	st, err := NewStructure(model)
	if err != nil {
		return BatchResult{}, err
	}
	if table.Actions() != st.actions {
		return BatchResult{}, fmt.Errorf("mdp: table has %d actions, model %d", table.Actions(), st.actions)
	}
	rewards := make([]float64, len(st.states))
	for s := range rewards {
		rewards[s] = model.RewardIndex(s)
	}
	return Solve(table.OwnRows(st.states), st, rewards, nil, cfg)
}

// Solve computes, in place, the action values that Algorithm 1's ε-greedy
// SARSA sweep estimates over the MDP (st, rewards): the fixed point of
//
//	Q(s,a) = r(s′) + γ·[(1−ε)·max Q(s′,·) + ε·mean Q(s′,·)],   s′ = Next(s,a),
//
// with max and mean over the feasible actions of s′ and γ, ε from cfg.Params.
// That is the expected SARSA target under the ε-greedy behaviour policy — the
// value the sampled sweep drifts around without settling — not the optimal
// Q*: the online agent keeps exploring, and values that price exploration in
// are the ones its retraining keeps refreshing. rewards[s] is the immediate
// reward received on entering state s.
//
// rows[s] is state s's row, solved in place from the values it holds: a
// table's own rows bound by QTable.OwnRows (offline training, BatchTrain), or
// the rows an agent's retraining region holds across intervals. The solve is
// Gauss–Seidel: a state's row is re-evaluated from the newest values of its
// successors, sweeps alternate the structure's order (index order unless it
// grew with one) and its reverse, and the solve stops once a sweep changes no
// entry by Theta or more, with MaxSweeps as the bound. Each sweep is a
// γ-contraction in the max norm, so after a sweep whose largest change is
// below Theta the Bellman residual is below γ·Theta. Only feasible entries
// are written — infeasible ones keep their value. val is
// scratch for one value per state, overwritten; Solve allocates its own when
// val is shorter. No random number is drawn, so the result depends on the
// inputs alone. cfg.StepsPerState and cfg.Params.Alpha are not used.
func Solve(rows [][]float64, st *Structure, rewards, val []float64, cfg BatchConfig) (BatchResult, error) {
	switch {
	case st == nil:
		return BatchResult{}, errors.New("mdp: nil structure")
	case len(rows) != len(st.states):
		return BatchResult{}, fmt.Errorf("mdp: %d rows for %d states", len(rows), len(st.states))
	case len(rewards) != len(st.states):
		return BatchResult{}, fmt.Errorf("mdp: %d rewards for %d states", len(rewards), len(st.states))
	}
	for s, row := range rows {
		if len(row) != st.actions {
			return BatchResult{}, fmt.Errorf("mdp: state %q has a row of %d actions, model %d",
				st.states[s], len(row), st.actions)
		}
	}
	if err := cfg.Params.Validate(); err != nil {
		return BatchResult{}, err
	}
	if cfg.MaxSweeps < 1 {
		cfg.MaxSweeps = 1
	}
	n, off, feas, succ := len(st.states), st.off, st.feas, st.succ
	gamma, eps := cfg.Params.Gamma, cfg.Params.Epsilon
	// val[s] is what entering s is worth: r(s) + γ·backup(s), where backup is
	// the expected value of the ε-greedy choice over s's row, given its max and
	// sum over the feasible actions (k of them). It is refreshed whenever s's
	// row is, so every target below is one load.
	value := func(s int, best, sum float64, k int) float64 {
		backup := float64((1-eps)*best + eps*sum/float64(k))
		return rewards[s] + gamma*backup
	}
	if len(val) < n {
		val = make([]float64, n)
	}
	val = val[:n]
	for s := range val {
		row, allowed := rows[s], feas[off[s]:off[s+1]]
		best, sum := row[allowed[0]], 0.0
		for _, a := range allowed {
			v := row[a]
			sum += v
			if v > best {
				best = v
			}
		}
		val[s] = value(s, best, sum, len(allowed))
	}
	if st.order != nil {
		return st.solveInOrder(rows, rewards, val, cfg), nil
	}

	var res BatchResult
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		var maxErr float64
		for i := 0; i < n; i++ {
			s := i
			if sweep%2 == 1 {
				s = n - 1 - i
			}
			row, lo, hi := rows[s], off[s], off[s+1]
			var best, sum float64
			for k := lo; k < hi; k++ {
				a, target := feas[k], val[succ[k]]
				if d := math.Abs(target - row[a]); d > maxErr {
					maxErr = d
				}
				row[a] = target
				sum += target
				if k == lo || target > best {
					best = target
				}
			}
			val[s] = value(s, best, sum, int(hi-lo))
		}
		res.Sweeps = sweep + 1
		res.FinalErr = maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// solveInOrder is Solve's sweep loop for a structure with a sweep order, once
// val holds every state's value: each sweep takes the states in order, then
// in reverse. It is a separate function so that the index-order loop every
// offline training runs carries no per-state order load.
func (st *Structure) solveInOrder(rows [][]float64, rewards, val []float64, cfg BatchConfig) BatchResult {
	order, off, feas, succ := st.order, st.off, st.feas, st.succ
	n := len(order)
	gamma, eps := cfg.Params.Gamma, cfg.Params.Epsilon
	var res BatchResult
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		var maxErr float64
		for i := 0; i < n; i++ {
			p := i
			if sweep%2 == 1 {
				p = n - 1 - i
			}
			s := int(order[p])
			row, lo, hi := rows[s], off[s], off[s+1]
			var best, sum float64
			for k := lo; k < hi; k++ {
				a, target := feas[k], val[succ[k]]
				if d := math.Abs(target - row[a]); d > maxErr {
					maxErr = d
				}
				row[a] = target
				sum += target
				if k == lo || target > best {
					best = target
				}
			}
			backup := float64((1-eps)*best + eps*sum/float64(hi-lo)) // Solve's value, inline
			val[s] = rewards[s] + gamma*backup
		}
		res.Sweeps = sweep + 1
		res.FinalErr = maxErr
		if maxErr < cfg.Theta {
			res.Converged = true
			break
		}
	}
	return res
}
