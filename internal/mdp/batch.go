package mdp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/rac-project/rac/internal/parallel"
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

// Structure is the skeleton of a Model: each state's feasible moves and its
// key. Rewards are deliberately excluded — they change between training
// calls (measured samples refine them) while the lattice shape does not, so
// one Structure can back every training pass over it. A Structure is
// immutable and may be shared read-only across agents tuning the same
// context. A GrowingStructure is the one that changes, and it solves itself.
type Structure struct {
	states []string
	successors
}

// successors lists a structure's feasible moves: state s's lead to
// next[off[s]:off[s+1]], in action order, move j taking action act[j] of
// actions, and role[s] holds s's role bits in the order the structure
// sweeps. An agent's region is mostly frontier states, whose moves mostly
// leave it, so no structure keeps a transition table.
type successors struct {
	actions   int
	off, next []int32
	act, role []uint8
}

// A state's role bits say which entries read its value: its own moves to
// itself, and moves to it from states of higher position in the sweep order
// (those a forward sweep visits after it) or of lower position (a backward
// sweep's). A whole structure sweeps in index order, so a position is an
// index there. A value sweep counts an entry's change in its largest change
// only through these (Solve).
const (
	selfMove  uint8 = 1 << iota // a feasible move of s stays at s
	readAbove                   // a state of higher position moves to s
	readBelow                   // a state of lower position moves to s
)

// States returns the state keys in index order. The slice is shared;
// callers must not mutate it.
func (st *Structure) States() []string { return st.states }

// Len returns the number of states.
func (sc *successors) Len() int { return len(sc.off) - 1 }

// Actions returns the per-state action count.
func (sc *successors) Actions() int { return sc.actions }

// Moves returns state s's feasible moves in action order: the states they
// lead to and the action of each. The slices are shared; callers must not
// mutate them.
func (sc *successors) Moves(s int) (next []int32, act []uint8) {
	lo, hi := sc.off[s], sc.off[s+1]
	return sc.next[lo:hi:hi], sc.act[lo:hi:hi]
}

// NewStructure materializes model's transitions into a Structure, validating
// the closure invariants training relies on: every transition stays inside
// the enumerated states and every state has at least one feasible action.
func NewStructure(model Model) (*Structure, error) {
	return newStructure(model.States(), model.Actions(), model.NextIndex)
}

// NewStructureFromTransitions is NewStructure for a caller that already holds
// the transition table: trans[s*actions+a] is the index reached by taking a
// in s, negative when infeasible. The structure takes ownership of states;
// the same closure invariants are validated, and the state keys must be
// distinct — a caller binding a table's rows by key would otherwise alias one
// row under two indices.
func NewStructureFromTransitions(states []string, actions int, trans []int32) (*Structure, error) {
	if len(trans) != len(states)*actions {
		return nil, fmt.Errorf("mdp: transition table has %d entries, want %d states x %d actions",
			len(trans), len(states), actions)
	}
	return newStructure(states, actions, func(s, a int) int { return int(trans[s*actions+a]) })
}

// newStructure builds a whole structure over distinct keys states in which
// action a of state s leads to next(s, a), negative when infeasible.
func newStructure(states []string, actions int, next func(s, a int) int) (*Structure, error) {
	seen := make(map[string]struct{}, len(states))
	for _, state := range states {
		if _, dup := seen[state]; dup {
			return nil, fmt.Errorf("mdp: state %q is listed twice", state)
		}
		seen[state] = struct{}{}
	}
	if actions < 1 || actions > 256 {
		return nil, fmt.Errorf("mdp: a model of %d actions, want 1 to 256", actions)
	}
	st := &Structure{states: states, successors: successors{actions: actions, off: make([]int32, 1, len(states)+1)}}
	sc, pos := &st.successors, make([]int32, len(states))
	for s := range states {
		for a := range actions {
			if to := next(s, a); to >= len(states) {
				return nil, fmt.Errorf("mdp: state %q action %d leads to index %d outside the model's %d states",
					states[s], a, to, len(states))
			} else if to >= 0 {
				sc.next = append(sc.next, int32(to))
				sc.act = append(sc.act, uint8(a))
			}
		}
		sc.off = append(sc.off, int32(len(sc.next)))
		pos[s] = int32(s)
	}
	if err := sc.index(pos, func(s int) string { return strconv.Quote(states[s]) }); err != nil {
		return nil, err
	}
	return st, nil
}

// index validates the closure invariants — every move stays inside the
// states and every state has one; name renders a state for an error — and
// sets each state's role bits in the sweep order pos gives the position of
// each state in.
func (sc *successors) index(pos []int32, name func(s int) string) error {
	n := len(sc.off) - 1
	if n == 0 {
		return errors.New("mdp: model has no states")
	}
	sc.role = slices.Grow(sc.role[:0], n)[:n]
	clear(sc.role)
	for s := range n {
		lo, hi := sc.off[s], sc.off[s+1]
		if lo == hi {
			return fmt.Errorf("mdp: %s has no feasible actions", name(s))
		}
		for j := lo; j < hi; j++ {
			to := sc.next[j]
			if int(to) >= n {
				return fmt.Errorf("mdp: %s action %d leads to index %d outside the model's %d states",
					name(s), sc.act[j], to, n)
			}
			bit := readBelow
			if pos[to] < pos[s] {
				bit = readAbove
			}
			if int(to) == s {
				bit = selfMove
			}
			sc.role[to] |= bit
		}
	}
	return nil
}

// GrowingStructure is a structure one owner grows in place and solves over
// values it keeps — Append, Link, Compile, then Solve. It keeps no state
// keys, since its owner identifies the states, and no Q-table: it keeps the
// Values its last solve left, and Row derives the entries from them. An
// entry no solve has set — of a state that joined since, or a move to one —
// holds what the owner says (held). What a solve or a compile only works in
// is borrowed (lent), so a structure at rest holds its moves, its order and
// the last solve's values, each sized to its states.
type GrowingStructure struct {
	successors // role bits in the positions of order
	// order is the next solve's sweep order, every index once (Compile).
	order []int32
	last  Values
}

// Values is what a solve leaves, by state: Prev and Val, the values before
// and after its last sweep, and pos, the position in its sweep order (nil:
// index order, a whole structure's); forward says the last sweep ran that
// order forward. The last sweep set each feasible entry (s,a) → t to t's
// value after the sweep when it reached t before s, else before it (a move
// to s itself included): entry is that rule, and every Q row is derived by
// it (successors.row). The states a solve took part in are the first
// len(Val).
type Values struct {
	Prev, Val []float64
	pos       []int32
	forward   bool
}

// lent lends the values one solve works in, and the positions one compile
// does, to whichever goroutine runs it; no structure keeps any of it.
var lent parallel.Lender[Values]

// fit returns s resized to n entries. When its capacity is short it
// reallocates, with room for n rounded up to the allocator's size class: the
// heap holds those bytes either way, and a structure that keeps growing
// reallocates only once it outgrows them.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return slices.Grow([]T(nil), n)[:n]
	}
	return s[:n]
}

// entry returns what the solve left in a feasible entry of state s leading
// to state to, and false when it did not set it: it swept only one end, or
// none.
func (v *Values) entry(s int, to int32) (float64, bool) {
	if n := len(v.Val); s >= n || int(to) >= n {
		return 0, false
	}
	ps, pt := int32(s), to
	if v.pos != nil {
		ps, pt = v.pos[s], v.pos[to]
	}
	if v.forward && pt < ps || !v.forward && pt > ps {
		return v.Val[to], true
	}
	return v.Prev[to], true
}

// row writes state s's entries into row, one per action: those v set, and
// held(s, a) for every other (nil: every other is left as it is).
func (sc *successors) row(v *Values, s int, row []float64, held func(s, a int) float64) {
	j, hi := sc.off[s], sc.off[s+1]
	for a := range row {
		x, ok := 0.0, false
		if j < hi && int(sc.act[j]) == a {
			x, ok = v.entry(s, sc.next[j])
			j++
		}
		if ok {
			row[a] = x
		} else if held != nil {
			row[a] = held(s, a)
		}
	}
}

// Row writes into row, one value per action, the entries of state s that a
// solve of st leaving v set: its feasible ones. The others are left as they
// are.
func (st *Structure) Row(v *Values, s int, row []float64) { st.row(v, s, row, nil) }

// Entry returns the entry for action a of state s that a solve of st leaving
// v set, and 0 when a is infeasible there: Row's entry a, read alone.
func (st *Structure) Entry(v *Values, s, a int) float64 {
	for j := st.off[s]; j < st.off[s+1]; j++ {
		if int(st.act[j]) == a {
			x, _ := v.entry(s, st.next[j])
			return x
		}
	}
	return 0
}

// NewGrowingStructure returns an empty structure of the given action count,
// which must be positive and at most 256.
func NewGrowingStructure(actions int) *GrowingStructure {
	if actions < 1 || actions > 256 {
		panic("mdp: GrowingStructure needs 1 to 256 actions")
	}
	return &GrowingStructure{successors: successors{actions: actions, off: []int32{0}}}
}

// Append adds a state with transitions next, one per action (negative:
// infeasible), and returns its index; it is unchecked until Compile.
func (g *GrowingStructure) Append(next []int32) int32 {
	if len(next) != g.actions {
		panic("mdp: Append with a row of the wrong width")
	}
	for a, to := range next {
		if to >= 0 {
			g.next = append(g.next, to)
			g.act = append(g.act, uint8(a))
		}
	}
	g.off = append(g.off, int32(len(g.next)))
	return int32(g.Len() - 1)
}

// Link makes the infeasible action a of state s lead to state to, which must
// have been appended since the last solve: a move the last solve set stays
// derived from its values.
func (g *GrowingStructure) Link(s, a int, to int32) {
	if int(to) < len(g.last.Val) || int(to) >= g.Len() {
		panic("mdp: Link to a state the last solve swept, or to none")
	}
	j, hi := int(g.off[s]), int(g.off[s+1])
	for j < hi && int(g.act[j]) < a {
		j++
	}
	g.next = slices.Insert(g.next, j, to)
	g.act = slices.Insert(g.act, j, uint8(a))
	for i := s + 1; i < len(g.off); i++ {
		g.off[i]++
	}
}

// Compile validates the structure as NewStructure does and installs order,
// every index once, kept rather than copied, as the next solve's sweep
// order. After an error only a successful Compile makes it solvable again.
func (g *GrowingStructure) Compile(order []int32) error {
	g.order = nil
	n := g.Len()
	if len(order) != n {
		return fmt.Errorf("mdp: sweep order lists %d states, want %d", len(order), n)
	}
	w := lent.Borrow()
	defer lent.GiveBack(w)
	w.pos = slices.Grow(w.pos[:0], n)[:n]
	for i := range w.pos {
		w.pos[i] = -1
	}
	for p, s := range order {
		if s < 0 || int(s) >= n || w.pos[s] >= 0 {
			return fmt.Errorf("mdp: sweep order lists state %d out of range or twice", s)
		}
		w.pos[s] = int32(p)
	}
	if err := g.index(w.pos, func(s int) string { return "state " + strconv.Itoa(s) }); err != nil {
		return err
	}
	g.order = order
	return nil
}

// Row writes state s's entries into row, one per action: those the last
// solve set, derived from its values, and held(s, a) for every other.
func (g *GrowingStructure) Row(s int, row []float64, held func(s, a int) float64) {
	g.row(&g.last, s, row, held)
}

// Solve retrains the structure's values with rewards (rewards[s] for
// entering state s): mdp.Solve's solve over the order Compile installed,
// from the entries the structure holds — those the last solve set (Row),
// and held(s, a) for every other feasible one. The last solve's values are
// read until the first sweep ends, so the solve writes scratch ones and
// then installs them (Install); it allocates only to grow the structure's
// own when states joined since the last solve and outgrew the allocator's
// size class.
func (g *GrowingStructure) Solve(rewards []float64, held func(s, a int) float64, cfg BatchConfig) (BatchResult, error) {
	n := g.Len()
	switch {
	case len(rewards) != n:
		return BatchResult{}, fmt.Errorf("mdp: %d rewards for %d states", len(rewards), n)
	case len(g.order) != n:
		return BatchResult{}, fmt.Errorf("mdp: the sweep order lists %d of %d states; Compile first", len(g.order), n)
	}
	if err := cfg.Params.Validate(); err != nil {
		return BatchResult{}, err
	}
	w := lent.Borrow()
	w.Prev, w.Val = slices.Grow(w.Prev[:0], n)[:n], slices.Grow(w.Val[:0], n)[:n]
	res := g.solve(g.order, rewards, w, &g.last, held, cfg)
	err := g.Install(w.Prev, w.Val, w.forward)
	lent.GiveBack(w)
	return res, err
}

// Solved returns the values the last solve left, by state, and whether its
// last sweep ran forward; callers must not mutate them.
func (g *GrowingStructure) Solved() (prev, val []float64, forward bool) {
	return g.last.Prev, g.last.Val, g.last.forward
}

// Install copies prev and val, by state, into the structure as the values a
// solve over the order Compile installed left, its last sweep running
// forward or not: what Solved returns, for a structure of the same moves.
func (g *GrowingStructure) Install(prev, val []float64, forward bool) error {
	if n := g.Len(); len(g.order) != n || len(prev) != n || len(val) != n {
		return fmt.Errorf("mdp: %d and %d values for %d states, %d of them in the sweep order", len(prev), len(val), n, len(g.order))
	}
	n := len(prev)
	g.last.Prev, g.last.Val, g.last.pos = fit(g.last.Prev, n), fit(g.last.Val, n), fit(g.last.pos, n)
	copy(g.last.Prev, prev)
	copy(g.last.Val, val)
	g.last.forward = forward
	for p, s := range g.order {
		g.last.pos[s] = int32(p)
	}
	return nil
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
	res, err := Solve(q, st, rewards, nil, cfg)
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
// solved from the values it holds: a table's rows copied in by BatchTrain.
// q may be empty, which stands for a slab of zeros that Solve neither reads
// nor writes (offline training). The solve is Gauss–Seidel: a state's row is
// re-evaluated from the newest values of its successors, sweeps alternate
// index order and its reverse — the first sweep, and every odd-numbered
// one, runs it forward — and the solve stops once a sweep changes no entry
// by Theta or more, with MaxSweeps as the bound. Each sweep is a
// γ-contraction in the max norm, so after a sweep whose largest change is
// below Theta the Bellman residual is below γ·Theta. A sweep sets each
// feasible entry, in action order, to the current value of the state it
// leads to; infeasible entries keep their value.
//
// The solve leaves its Values in v (nil: Solve uses its own): Val holds one
// value per state, what entering it is worth — r(s) plus γ times the
// ε-greedy backup of its row — after the last sweep, and Prev the values
// that sweep began with (an offline policy keeps v in place of its slab).
// Their contents on entry are overwritten; they are allocated, in one
// piece, only when either is short of the state count.
//
// The sweeps write Val and Prev, never q. After a
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
// v (Row) — what the sweep would have left there — and infeasible entries
// are untouched. With q empty and v's values long enough, Solve allocates
// nothing. No random number is drawn, so the result depends on the inputs
// alone. cfg.StepsPerState and cfg.Params.Alpha are not used.
func Solve(q []float64, st *Structure, rewards []float64, v *Values, cfg BatchConfig) (BatchResult, error) {
	if st == nil {
		return BatchResult{}, errors.New("mdp: nil structure")
	}
	n, actions := st.Len(), st.actions
	switch {
	case len(q) != 0 && len(q) != n*actions:
		return BatchResult{}, fmt.Errorf("mdp: a slab of %d values for %d states x %d actions", len(q), n, actions)
	case len(rewards) != n:
		return BatchResult{}, fmt.Errorf("mdp: %d rewards for %d states", len(rewards), n)
	}
	if err := cfg.Params.Validate(); err != nil {
		return BatchResult{}, err
	}
	if v == nil {
		v = new(Values)
	}
	if cap(v.Prev) < n || cap(v.Val) < n {
		both := make([]float64, 2*n)
		v.Prev, v.Val = both[:n:n], both[n:]
	}
	v.Prev, v.Val, v.pos = v.Prev[:n], v.Val[:n], nil
	var held func(s, a int) float64
	if len(q) != 0 {
		held = func(s, a int) float64 { return q[s*actions+a] }
	}
	res := st.solve(nil, rewards, v, &Values{}, held, cfg)
	for s := 0; len(q) != 0 && s < n; s++ {
		st.Row(v, s, q[s*actions:(s+1)*actions])
	}
	return res, nil
}

// solve is the solve both kinds of structure run (Solve), over the moves in
// sc and the states in order (nil: index order), from the entries last set
// and, for every other feasible entry (s,a), held(s, a) (nil: zeros). It
// leaves in out, whose values it overwrites, what its last sweep began and
// ended with and that sweep's direction. Val[s] is what entering s is worth:
// r(s) plus γ times the ε-greedy backup of its row.
func (sc *successors) solve(order []int32, rewards []float64, out, last *Values,
	held func(s, a int) float64, cfg BatchConfig) BatchResult {
	gamma, eps, prev, val := cfg.Params.Gamma, cfg.Params.Epsilon, out.Prev, out.Val
	for s := range val {
		lo, hi := int(sc.off[s]), int(sc.off[s+1])
		var best, sum float64 // over a row of zeros when held is nil
		for j := lo; held != nil && j < hi; j++ {
			v, ok := last.entry(s, sc.next[j])
			if !ok {
				v = held(s, int(sc.act[j]))
			}
			sum += v
			if j == lo || v > best {
				best = v
			}
		}
		val[s] = rewards[s] + gamma*float64((1-eps)*best+eps*sum/float64(hi-lo))
	}
	var maxErr float64
	if held == nil {
		// From zeros, prev all +0: an entry whose target the sweep reaches
		// first changes by the target's new value, any other by the target's
		// old one.
		clear(prev)
		maxErr = sc.valueSweep(order, rewards, prev, val, false, readAbove, selfMove|readBelow, cfg.Params)
	}
	for i := 0; held != nil && i < len(val); i++ {
		s := i
		if order != nil {
			s = int(order[i])
		}
		lo, hi := int(sc.off[s]), int(sc.off[s+1])
		var best, sum float64
		for j := lo; j < hi; j++ {
			to := sc.next[j]
			was, ok := last.entry(s, to)
			if !ok {
				was = held(s, int(sc.act[j]))
			}
			target := val[to]
			if d := math.Abs(target - was); d > maxErr {
				maxErr = d
			}
			sum += target
			if j == lo || target > best {
				best = target
			}
		}
		prev[s] = val[s]
		val[s] = rewards[s] + gamma*float64((1-eps)*best+eps*sum/float64(hi-lo))
	}
	res := BatchResult{Sweeps: 1, FinalErr: maxErr, Converged: maxErr < cfg.Theta}
	for sweep := 1; !res.Converged && sweep < cfg.MaxSweeps; sweep++ {
		// An entry whose target the sweep reaches first changes by the
		// target's new value against its prev, a move to s itself by s's old
		// value against its prev.
		backward := sweep%2 == 1
		fresh := readAbove
		if backward {
			fresh = readBelow
		}
		maxErr = sc.valueSweep(order, rewards, prev, val, backward, fresh, selfMove, cfg.Params)
		res = BatchResult{Sweeps: sweep + 1, FinalErr: maxErr, Converged: maxErr < cfg.Theta}
	}
	out.forward = res.Sweeps%2 == 1 // the first sweep, and every odd-numbered one, runs forward
	return res
}

// valueSweep runs one value sweep over the states in order, nil for a whole
// structure's index order (backward: reversed), and returns its largest
// change: the largest |old−prev| over states with a stale role bit and
// |new−prev| over those with a fresh one. Each state's prev becomes its old
// value and its val the new one. An order is swept by its own loop
// (orderSweep), so the offline sweep reads none.
func (sc *successors) valueSweep(order []int32, rewards, prev, val []float64, backward bool, fresh, stale uint8, p Params) float64 {
	if order != nil {
		return sc.orderSweep(order, rewards, prev, val, backward, fresh, stale, p)
	}
	n, off, succ, role := len(val), sc.off, sc.next, sc.role
	var maxErr float64
	for i := 0; i < n; i++ {
		s := i
		if backward {
			s = n - 1 - i
		}
		old, was := val[s], prev[s]
		val[s] = rewards[s] + p.Gamma*backup(val, succ[off[s]:off[s+1]], p.Epsilon)
		prev[s] = old
		maxErr = raise(raise(maxErr, role[s]&stale, old, was), role[s]&fresh, val[s], was)
	}
	return maxErr
}

// orderSweep is valueSweep over the states in order.
func (sc *successors) orderSweep(order []int32, rewards, prev, val []float64, backward bool, fresh, stale uint8, p Params) float64 {
	n, off, succ, role := len(val), sc.off, sc.next, sc.role
	var maxErr float64
	for i := 0; i < n; i++ {
		at := i
		if backward {
			at = n - 1 - i
		}
		s := order[at]
		old, was := val[s], prev[s]
		val[s] = rewards[s] + p.Gamma*backup(val, succ[off[s]:off[s+1]], p.Epsilon)
		prev[s] = old
		maxErr = raise(raise(maxErr, role[s]&stale, old, was), role[s]&fresh, val[s], was)
	}
	return maxErr
}

// backup returns the ε-greedy backup over the values of the states next
// lists: (1−ε)·max + ε·mean, rounded to float64.
func backup(val []float64, next []int32, eps float64) float64 {
	var best, sum float64
	for j, to := range next {
		v := val[to]
		sum += v
		if j == 0 || v > best {
			best = v
		}
	}
	return float64((1-eps)*best + eps*sum/float64(len(next)))
}

// raise returns maxErr raised to |v−was| when bits is not zero.
func raise(maxErr float64, bits uint8, v, was float64) float64 {
	if d := math.Abs(v - was); bits != 0 && d > maxErr {
		return d
	}
	return maxErr
}
