package mdp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

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

// Structure is the skeleton of a Model: its transition table in dense array
// form and, for a structure built whole, its state keys. Rewards are
// deliberately excluded — they change between training calls (measured
// samples refine them) while the lattice shape does not, so one Structure can
// back every retraining pass over the same region. A Structure built whole
// (NewStructure, NewStructureFromTransitions) is immutable and may be shared
// read-only across agents tuning the same context; only a GrowingStructure
// changes, and only it has a sweep order. A whole structure is solved by
// sweeping state values (Solve), so at construction it also lists each
// state's feasible successors and fixes its role bits; a growing one is
// solved over its caller's slab.
type Structure struct {
	// states are a whole structure's keys, by index; a growing structure
	// keeps none — its owner names its states.
	states  []string
	actions int
	// trans[s*actions+a] is the index reached by taking a in s, or -1 when
	// infeasible. A whole structure's lattice is dense, and Solve walks its
	// successor lists. A growing structure's is sparse — an agent's region is
	// mostly frontier states, whose moves mostly leave it — so it also keeps
	// live, one bit per feasible entry in words() words per state, and Solve
	// visits only those, in action order.
	trans []int32
	live  []uint64
	// order is a growing structure's sweep order, every index once, set by
	// Compile; a whole structure has none and sweeps in index order.
	order []int32
	// succ is a whole structure's successor lists, fixed by trans at
	// construction (index); a growing structure has none, and an agent's
	// region, one per tenant, pays one pointer for it.
	succ *successors
}

// successors lists a whole structure's feasible successors: state s's are
// next[off[s]:off[s+1]], in action order, and role[s] holds s's role bits.
type successors struct {
	off, next []int32
	role      []uint8
}

// A whole structure's role bits say which entries read state s's value: its
// own moves to itself, and moves to it from states of higher index (those a
// forward sweep visits after s) or of lower index (a backward sweep's). A
// value sweep counts an entry's change in its largest change only through
// these (Solve).
const (
	selfMove  uint8 = 1 << iota // a feasible move of s stays at s
	readAbove                   // a state of higher index moves to s
	readBelow                   // a state of lower index moves to s
)

// States returns a whole structure's state keys in index order (nil for a
// growing one). The slice is shared; callers must not mutate it.
func (st *Structure) States() []string { return st.states }

// Len returns the number of states.
func (st *Structure) Len() int { return len(st.trans) / st.actions }

// Actions returns the per-state action count.
func (st *Structure) Actions() int { return st.actions }

// words returns the number of live words per state.
func (st *Structure) words() int { return (st.actions + 63) / 64 }

// mark sets (feasible) or clears live's bit for action a of state s.
func (st *Structure) mark(s, a int, feasible bool) {
	w, bit := s*st.words()+a/64, uint64(1)<<(a%64)
	if feasible {
		st.live[w] |= bit
	} else {
		st.live[w] &^= bit
	}
}

// Next returns the index reached by taking action in state s, or a negative
// value when the action is infeasible there.
func (st *Structure) Next(s, action int) int { return int(st.trans[s*st.actions+action]) }

// NewStructure materializes model's transitions into a Structure, validating
// the closure invariants training relies on: every transition stays inside
// the enumerated states and every state has at least one feasible action.
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
// distinct — a caller binding a table's rows by key would otherwise alias one
// row under two indices.
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
	st := &Structure{states: states, actions: actions, trans: trans}
	if err := st.check(); err != nil {
		return nil, err
	}
	st.index()
	return st, nil
}

// index builds a whole structure's successor lists and role bits.
func (st *Structure) index() {
	n, actions := st.Len(), st.actions
	feasible := 0
	for _, to := range st.trans {
		if to >= 0 {
			feasible++
		}
	}
	sc := &successors{off: make([]int32, n+1), next: make([]int32, 0, feasible), role: make([]uint8, n)}
	for s := range n {
		for _, to := range st.trans[s*actions : (s+1)*actions] {
			switch {
			case to < 0:
				continue
			case int(to) == s:
				sc.role[s] |= selfMove
			case int(to) < s:
				sc.role[to] |= readAbove
			default:
				sc.role[to] |= readBelow
			}
			sc.next = append(sc.next, to)
		}
		sc.off[s+1] = int32(len(sc.next))
	}
	st.succ = sc
}

// GrowingStructure is a Structure one owner grows in place — Append, Link,
// then Compile before Solve takes &g.Structure. It keeps no state keys: the
// owner identifies its states, more cheaply than by string.
type GrowingStructure struct {
	Structure
	seen []uint64 // Compile's scratch: one bit per state
}

// NewGrowingStructure returns an empty structure of the given action count,
// which must be positive.
func NewGrowingStructure(actions int) *GrowingStructure {
	if actions < 1 {
		panic("mdp: GrowingStructure needs at least one action")
	}
	return &GrowingStructure{Structure: Structure{actions: actions}}
}

// Append adds a state with transitions next, one per action, and returns its
// index. next is copied; an entry may name the state being appended. The
// sweep order is stale until Compile.
func (g *GrowingStructure) Append(next []int32) int32 {
	if len(next) != g.actions {
		panic("mdp: Append with a row of the wrong width")
	}
	if len(g.trans)+len(next) > cap(g.trans) {
		// Grow by half: a structure grows one state at a time, and append's
		// quarter past 256 entries would copy the table about twice as often.
		grown := make([]int32, len(g.trans), max(len(g.trans)+len(next), cap(g.trans)*3/2))
		copy(grown, g.trans)
		g.trans = grown
	}
	g.trans = append(g.trans, next...)
	s := g.Len() - 1
	g.live = slices.Grow(g.live, g.words())[:len(g.live)+g.words()]
	for a, to := range next {
		g.mark(s, a, to >= 0)
	}
	return int32(s)
}

// Link sets the transition of action a in state s to index to (negative:
// infeasible). The structure is unchecked until Compile.
func (g *GrowingStructure) Link(s, a int, to int32) {
	g.trans[s*g.actions+a] = to
	g.mark(s, a, to >= 0)
}

// Compile validates the structure as NewStructure does and installs order —
// every index once, kept rather than copied — as the sweep order. After an
// error only a successful Compile makes the structure solvable again.
func (g *GrowingStructure) Compile(order []int32) error {
	g.order = nil
	n := g.Len()
	if len(order) != n {
		return fmt.Errorf("mdp: sweep order lists %d states, want %d", len(order), n)
	}
	g.seen = slices.Grow(g.seen[:0], (n+63)/64)[:(n+63)/64]
	clear(g.seen)
	for _, s := range order {
		if s < 0 || int(s) >= n || g.seen[s/64]&(1<<(s%64)) != 0 {
			return fmt.Errorf("mdp: sweep order lists state %d out of range or twice", s)
		}
		g.seen[s/64] |= 1 << (s % 64)
	}
	if err := g.check(); err != nil {
		return err
	}
	g.order = order
	return nil
}

// check validates the closure invariants in place: every transition stays
// inside the states and every state has a feasible action.
func (st *Structure) check() error {
	if st.actions < 1 {
		return errors.New("mdp: model has no actions")
	}
	n, actions := st.Len(), st.actions
	if n == 0 {
		return errors.New("mdp: model has no states")
	}
	for s := 0; s < n; s++ {
		feasible := false
		for a, next := range st.trans[s*actions : (s+1)*actions] {
			if int(next) >= n {
				return fmt.Errorf("mdp: %s action %d leads to index %d outside the model's %d states",
					st.name(s), a, next, n)
			}
			feasible = feasible || next >= 0
		}
		if !feasible {
			return fmt.Errorf("mdp: %s has no feasible actions", st.name(s))
		}
	}
	return nil
}

// name renders state s for an error: its key, or its index in a growing
// structure.
func (st *Structure) name(s int) string {
	if st.states != nil {
		return strconv.Quote(st.states[s])
	}
	return "state " + strconv.Itoa(s)
}

// BatchTrain is Solve for an ad-hoc model: it materializes the model's
// Structure and rewards, binds the table's rows for its states into one slab,
// solves, and writes the rows back. Callers that retrain over one lattice
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
	a := st.actions
	if table.Actions() != a {
		return BatchResult{}, fmt.Errorf("mdp: table has %d actions, model %d", table.Actions(), a)
	}
	rewards := make([]float64, len(st.states))
	for s := range rewards {
		rewards[s] = model.RewardIndex(s)
	}
	rows := table.OwnRows(st.states)
	q := make([]float64, len(rows)*a)
	for s, row := range rows {
		copy(q[s*a:], row)
	}
	res, err := Solve(q, st, rewards, nil, nil, cfg)
	for s, row := range rows {
		copy(row, q[s*a:])
	}
	return res, err
}

// Solve computes the action values that Algorithm 1's ε-greedy SARSA sweep
// estimates over the MDP (st, rewards): the fixed point of
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
// q is the Q-value slab, state s's row being q[s*A:(s+1)*A] for A actions,
// solved from the values it holds: the rows an agent's retraining region
// holds across intervals, or a table's rows copied in by BatchTrain. Over a
// whole structure q may be empty, which stands for a slab of zeros that
// Solve neither reads nor writes (offline training). The solve is
// Gauss–Seidel: a state's row is re-evaluated from the newest values of its
// successors, sweeps alternate the structure's order (index order unless it
// grew with one) and its reverse — the first sweep, and every odd-numbered
// one, runs it forward — and the solve stops once a sweep changes no entry
// by Theta or more, with MaxSweeps as the bound. Each sweep is a
// γ-contraction in the max norm, so after a sweep whose largest change is
// below Theta the Bellman residual is below γ·Theta. A sweep sets each
// feasible entry, in action order, to the current value of the state it
// leads to; infeasible entries keep their value.
//
// val holds one value per state: what entering it is worth, r(s) plus γ
// times the ε-greedy backup of its row. Its contents on entry are
// overwritten; on return it holds the values the last sweep left. Over a
// whole structure prev likewise receives the values that sweep began with
// (an offline policy keeps the two in place of its slab); a growing
// structure's solve neither reads nor writes it. Solve allocates its own
// val or prev when the one passed is shorter than the state count.
//
// Over a whole structure the sweeps write val and prev, never q. After a
// sweep each entry (s,a) → t holds t's value after that sweep when it reached
// t before s, else t's value before it (a move to s itself included). So the
// next sweep, which runs the other way, changes the entry by exactly 0 when
// it reaches t after s, and by the change in t's value across both sweeps
// when it reaches t before s; a move to s itself changes by the change in
// s's value across the previous sweep. A sweep's largest change is therefore
// a maximum over states of two differences against prev, selected by the
// structure's role bits. The first sweep compares each entry against q, read
// only (against 0 when q is empty: every entry then changes by what it is set
// to). On return each feasible entry of a non-empty q is written once from
// prev, val and the last sweep's direction — what the sweep would have left
// there — and infeasible entries are untouched. With q empty and val and prev
// long enough, Solve allocates nothing. No random number is drawn, so the
// result depends on the inputs alone. cfg.StepsPerState and
// cfg.Params.Alpha are not used.
func Solve(q []float64, st *Structure, rewards, prev, val []float64, cfg BatchConfig) (BatchResult, error) {
	if st == nil {
		return BatchResult{}, errors.New("mdp: nil structure")
	}
	n, actions := st.Len(), st.actions
	switch {
	case len(q) != 0 && len(q) != n*actions, len(q) == 0 && st.live != nil:
		return BatchResult{}, fmt.Errorf("mdp: a slab of %d values for %d states x %d actions", len(q), n, actions)
	case len(rewards) != n:
		return BatchResult{}, fmt.Errorf("mdp: %d rewards for %d states", len(rewards), n)
	case st.live != nil && len(st.order) != n:
		return BatchResult{}, fmt.Errorf("mdp: the sweep order lists %d of %d states; Compile first", len(st.order), n)
	}
	if err := cfg.Params.Validate(); err != nil {
		return BatchResult{}, err
	}
	if cfg.MaxSweeps < 1 {
		cfg.MaxSweeps = 1
	}
	if len(val) < n {
		val = make([]float64, n)
	}
	// val[s] is what entering s is worth: r(s) + γ·backup(s), where backup is
	// the expected value of the ε-greedy choice over s's row, given its max and
	// sum over the feasible actions (k of them). It is refreshed whenever s's
	// row is, so every target is one load. The two sweeps below differ in
	// what they keep; each is its own function so neither carries the other's
	// per-state branch.
	if st.live != nil {
		return st.solveLive(q, rewards, val[:n], cfg), nil
	}
	if len(prev) < n {
		prev = make([]float64, n)
	}
	res := st.solveDense(q, rewards, prev[:n], val[:n], cfg)
	if len(q) != 0 {
		st.writeBack(q, prev[:n], val[:n], res.Sweeps%2 == 1)
	}
	return res, nil
}

// solveDense is Solve's value sweep over a whole structure: states in index
// order, each one's feasible successors read from succ, val and prev
// updated in place.
func (st *Structure) solveDense(q, rewards, prev, val []float64, cfg BatchConfig) BatchResult {
	actions, gamma, eps := st.actions, cfg.Params.Gamma, cfg.Params.Epsilon
	for s := range val {
		var best, sum float64 // over a row of zeros when q is empty
		k := 0
		for a, to := range st.trans[s*actions : (s+1)*actions] {
			if to < 0 {
				continue
			}
			if len(q) != 0 {
				v := q[s*actions+a]
				sum += v
				if k == 0 || v > best {
					best = v
				}
			}
			k++
		}
		backup := float64((1-eps)*best + eps*sum/float64(k))
		val[s] = rewards[s] + gamma*backup
	}
	clear(prev)
	var res BatchResult
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		// An entry whose target the sweep reaches first changes by the
		// target's new value against its prev (fresh); a move to s itself by
		// s's old value against its prev (stale), as does, in a first sweep
		// from zeros (prev all +0), every entry whose target the sweep
		// reaches last.
		backward := sweep%2 == 1
		fresh, stale := readAbove, selfMove
		if backward {
			fresh = readBelow
		} else if sweep == 0 {
			stale |= readBelow
		}
		maxErr := st.valueSweep(rewards, prev, val, backward, fresh, stale, cfg.Params)
		if sweep == 0 && len(q) != 0 {
			// A caller's slab is no slab of zeros: compare each entry, read
			// only, against what the sweep set it to.
			maxErr = 0
			for i, to := range st.trans {
				if to < 0 {
					continue
				}
				if d := math.Abs(left(prev, val, i/actions, to, true) - q[i]); d > maxErr {
					maxErr = d
				}
			}
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

// valueSweep runs one sweep over a whole structure (backward: in reverse
// index order) and returns its largest change: the largest |old−prev| over
// states with a stale role bit and |new−prev| over those with a fresh one.
// Each state's prev becomes its old value and its val the new one.
func (st *Structure) valueSweep(rewards, prev, val []float64, backward bool, fresh, stale uint8, p Params) float64 {
	n, off, succ, role := len(val), st.succ.off, st.succ.next, st.succ.role
	gamma, eps := p.Gamma, p.Epsilon
	var maxErr float64
	for i := 0; i < n; i++ {
		s := i
		if backward {
			s = n - 1 - i
		}
		next := succ[off[s]:off[s+1]]
		var best, sum float64
		for j, to := range next {
			v := val[to]
			sum += v
			if j == 0 || v > best {
				best = v
			}
		}
		backup := float64((1-eps)*best + eps*sum/float64(len(next)))
		old, was := val[s], prev[s]
		val[s] = rewards[s] + gamma*backup
		prev[s] = old
		if role[s]&stale != 0 {
			if d := math.Abs(old - was); d > maxErr {
				maxErr = d
			}
		}
		if role[s]&fresh != 0 {
			if d := math.Abs(val[s] - was); d > maxErr {
				maxErr = d
			}
		}
	}
	return maxErr
}

// left returns what a whole structure's sweep (forward: in index order) that
// began with prev and ended with val leaves in a feasible entry of state s
// leading to state to: to's value after the sweep when the sweep reached to
// before s, else its value before the sweep.
func left(prev, val []float64, s int, to int32, forward bool) float64 {
	if forward && int(to) < s || !forward && int(to) > s {
		return val[to]
	}
	return prev[to]
}

// writeBack sets each feasible entry of q to what the last sweep (forward:
// in index order) left there.
func (st *Structure) writeBack(q, prev, val []float64, forward bool) {
	for i, to := range st.trans {
		if to >= 0 {
			q[i] = left(prev, val, i/st.actions, to, forward)
		}
	}
}

// solveLive is Solve over a growing structure: states in its sweep order,
// each row's feasible entries reached through its live bits, in action order
// — the slab sweep whole structures ran before their value sweep
// (solveDense), over the same entries in the same order.
func (st *Structure) solveLive(q, rewards, val []float64, cfg BatchConfig) BatchResult {
	n, actions, trans, live, words := len(val), st.actions, st.trans, st.live, st.words()
	gamma, eps := cfg.Params.Gamma, cfg.Params.Epsilon
	for s := range val {
		row := q[s*actions : (s+1)*actions]
		var best, sum float64
		k := 0
		for w, m := range live[s*words : (s+1)*words] {
			for ; m != 0; m &= m - 1 {
				v := row[w*64+bits.TrailingZeros64(m)]
				sum += v
				if k == 0 || v > best {
					best = v
				}
				k++
			}
		}
		backup := float64((1-eps)*best + eps*sum/float64(k))
		val[s] = rewards[s] + gamma*backup
	}
	var res BatchResult
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		var maxErr float64
		for i := 0; i < n; i++ {
			p := i
			if sweep%2 == 1 {
				p = n - 1 - i
			}
			s := int(st.order[p])
			row, next := q[s*actions:(s+1)*actions], trans[s*actions:(s+1)*actions]
			var best, sum float64
			k := 0
			for w, m := range live[s*words : (s+1)*words] {
				for ; m != 0; m &= m - 1 {
					a := w*64 + bits.TrailingZeros64(m)
					target := val[next[a]]
					if d := math.Abs(target - row[a]); d > maxErr {
						maxErr = d
					}
					row[a] = target
					sum += target
					if k == 0 || target > best {
						best = target
					}
					k++
				}
			}
			backup := float64((1-eps)*best + eps*sum/float64(k))
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
